package mralgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

func newEngine() *mapreduce.Engine {
	return mapreduce.New(cluster.DAS4(4, 1))
}

// testGraphs returns a directed and an undirected small-but-nontrivial
// graph from the dataset generators.
func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	amazon, err := datagen.ByName("Amazon")
	if err != nil {
		t.Fatal(err)
	}
	kgs, err := datagen.ByName("KGS")
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{
		amazon.GenerateScaled(60, 5), // directed
		kgs.GenerateScaled(60, 5),    // undirected
	}
}

func TestBFSJobPerIteration(t *testing.T) {
	// Each BFS level must launch exactly one job (the paper's Hadoop
	// iteration tax), plus the final no-change round.
	g := testGraphs(t)[1]
	e := newEngine()
	res, err := BFS(e, g, algo.PickSource(g, 42))
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, ph := range e.Profile.Phases {
		jobs += ph.Jobs
	}
	if jobs != res.Iterations+1 {
		t.Fatalf("jobs = %d, want iterations+1 = %d", jobs, res.Iterations+1)
	}
	// The graph is re-read from the DFS on every iteration.
	var reads int64
	for _, ph := range e.Profile.Phases {
		if ph.Kind == cluster.PhaseRead {
			reads += ph.DiskRead
		}
	}
	minBytes := int64(res.Iterations) * BuildDataset(g, algo.NewAdjacency(g), false).Bytes()
	if reads < minBytes {
		t.Fatalf("DFS reads = %d, want >= %d (full rescan per iteration)", reads, minBytes)
	}
}

func TestEVOTwoJobsPerIteration(t *testing.T) {
	g := testGraphs(t)[0]
	e := newEngine()
	p := algo.DefaultParams(7)
	if _, err := EVO(e, g, p); err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, ph := range e.Profile.Phases {
		jobs += ph.Jobs
	}
	if jobs != 2*p.EVOIterations {
		t.Fatalf("jobs = %d, want 2 per iteration = %d", jobs, 2*p.EVOIterations)
	}
}

func TestStatsShuffleVolumeGrowsWithDegreeSquared(t *testing.T) {
	// STATS ships each vertex's list to every neighbour: shuffle bytes
	// ~ sum(deg^2). A star graph must dwarf a path of equal edge count.
	star := graph.NewBuilder(101, false)
	for i := 1; i <= 100; i++ {
		star.AddEdge(0, graph.VertexID(i))
	}
	path := graph.NewBuilder(101, false)
	for i := 0; i < 100; i++ {
		path.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	shuffle := func(g *graph.Graph) int64 {
		e := newEngine()
		if _, err := Stats(e, g); err != nil {
			t.Fatal(err)
		}
		return e.Profile.TotalNet()
	}
	if s, p := shuffle(star.Build()), shuffle(path.Build()); s < 5*p {
		t.Fatalf("star shuffle %d should dwarf path shuffle %d", s, p)
	}
}
