package pactalgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/graph"
)

func newEngine() *dataflow.Engine {
	return dataflow.New(cluster.DAS4(4, 1))
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

func TestBFSOneJobPerLevelPlusStore(t *testing.T) {
	g := testGraphs(t)[1]
	e := newEngine()
	res, err := BFS(e, g, algo.PickSource(g, 42))
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	var reads int64
	for _, ph := range e.Profile.Phases {
		jobs += ph.Jobs
		if ph.Kind == cluster.PhaseRead {
			reads += ph.DiskRead
		}
	}
	// One job per level, one final no-change round, one store job.
	if jobs != res.Iterations+2 {
		t.Fatalf("jobs = %d, want %d", jobs, res.Iterations+2)
	}
	// Unlike Hadoop, the DFS is read once: intermediates ride in
	// memory between jobs.
	if maxRead := 2 * algo.VertexRecords(g, algo.NewAdjacency(g), false).Bytes(); reads > maxRead {
		t.Fatalf("DFS reads = %d, want <= %d (single initial read)", reads, maxRead)
	}
}

func TestEVOSingleJobPerIteration(t *testing.T) {
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
	if jobs != p.EVOIterations {
		t.Fatalf("jobs = %d, want 1 per iteration = %d (map-reduce-reduce)", jobs, p.EVOIterations)
	}
}
