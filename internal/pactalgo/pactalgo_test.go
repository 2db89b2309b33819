package pactalgo

import (
	"math"
	"reflect"
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

func TestStatsMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		want := algo.RefStats(g)
		got, err := Stats(newEngine(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Vertices != want.Vertices || got.Edges != want.Edges {
			t.Fatalf("%v: stats = %+v, want %+v", g, got, want)
		}
		if math.Abs(got.AvgLCC-want.AvgLCC) > 1e-6 {
			t.Fatalf("%v: AvgLCC = %v, want %v", g, got.AvgLCC, want.AvgLCC)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		src := algo.PickSource(g, 42)
		want := algo.RefBFS(g, src)
		got, err := BFS(newEngine(), g, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Fatalf("%v: BFS levels differ", g)
		}
		if got.Visited != want.Visited || got.Iterations != want.Iterations {
			t.Fatalf("%v: got %d/%d, want %d/%d", g, got.Visited, got.Iterations, want.Visited, want.Iterations)
		}
	}
}

func TestConnMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		want := algo.RefConn(g)
		got, err := Conn(newEngine(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("%v: CONN labels differ", g)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%v: iterations = %d, want %d", g, got.Iterations, want.Iterations)
		}
	}
}

func TestCDMatchesReference(t *testing.T) {
	p := algo.DefaultParams(42)
	for _, g := range testGraphs(t) {
		want := algo.RefCD(g, p)
		got, err := CD(newEngine(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("%v: CD labels differ", g)
		}
		if got.Communities != want.Communities || got.Iterations != want.Iterations {
			t.Fatalf("%v: got %+v, want %+v", g, got, want)
		}
	}
}

func TestEVOMatchesReference(t *testing.T) {
	p := algo.DefaultParams(42)
	for _, g := range testGraphs(t) {
		want := algo.RefEVO(g, p)
		got, err := EVO(newEngine(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.NewVertices != want.NewVertices || got.NewEdges != want.NewEdges {
			t.Fatalf("%v: got %d/%d, want %d/%d", g, got.NewVertices, got.NewEdges, want.NewVertices, want.NewEdges)
		}
		if !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Fatalf("%v: EVO edges differ", g)
		}
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
	if maxRead := 2 * BuildDataset(g, algo.NewAdjacency(g), false).Bytes(); reads > maxRead {
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

func TestSSSPMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		wg := graph.WithWeights(g, 99)
		src := algo.PickSource(wg, 42)
		want := algo.RefSSSP(wg, src)
		got, err := SSSP(newEngine(), wg, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Dist, want.Dist) {
			t.Fatalf("%v: SSSP distances differ", wg)
		}
		if err := algo.ValidateSSSP(wg, src, &got); err != nil {
			t.Fatalf("%v: %v", wg, err)
		}
	}
}
