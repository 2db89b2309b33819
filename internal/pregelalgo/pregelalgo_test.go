package pregelalgo

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
)

func hw() cluster.Hardware { return cluster.DAS4(5, 1) }

func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for _, name := range []string{"Amazon", "KGS", "Citation"} {
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.GenerateScaled(60, 5))
	}
	return out
}

func TestStatsMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		want := algo.RefStats(g)
		got, st, err := Stats(g, hw(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Vertices != want.Vertices || got.Edges != want.Edges {
			t.Fatalf("%v: stats = %+v, want %+v", g, got, want)
		}
		if math.Abs(got.AvgLCC-want.AvgLCC) > 1e-9 {
			t.Fatalf("%v: AvgLCC = %v, want %v", g, got.AvgLCC, want.AvgLCC)
		}
		if st.Supersteps != 2 {
			t.Fatalf("supersteps = %d, want 2", st.Supersteps)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		src := algo.PickSource(g, 42)
		want := algo.RefBFS(g, src)
		got, _, err := BFS(g, hw(), src, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Fatalf("%v: BFS levels differ", g)
		}
		if got.Iterations != want.Iterations || got.Visited != want.Visited {
			t.Fatalf("%v: got %d/%d want %d/%d", g, got.Iterations, got.Visited, want.Iterations, want.Visited)
		}
	}
}

func TestConnMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		want := algo.RefConn(g)
		got, _, err := Conn(g, hw(), 0, nil)
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
		got, _, err := CD(g, hw(), p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("%v: CD labels differ", g)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%v: iterations = %d, want %d", g, got.Iterations, want.Iterations)
		}
	}
}

func TestEVOMatchesReference(t *testing.T) {
	p := algo.DefaultParams(42)
	for _, g := range testGraphs(t) {
		want := algo.RefEVO(g, p)
		got, st, err := EVO(g, hw(), p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.NewVertices != want.NewVertices || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Fatalf("%v: EVO differs from reference", g)
		}
		// "our graph evolution algorithm generates relatively few
		// messages": bounded by the new edge count.
		if st.TotalMessages > int64(want.NewEdges) {
			t.Fatalf("EVO messages = %d, want <= %d", st.TotalMessages, want.NewEdges)
		}
	}
}

func TestBFSDynamicComputation(t *testing.T) {
	// Only frontier vertices compute: total compute ops must be far
	// below V * supersteps on a deep graph.
	p, _ := datagen.ByName("Amazon")
	g := p.GenerateScaled(60, 5)
	profile := &cluster.ExecutionProfile{}
	res, _, err := BFS(g, hw(), algo.PickSource(g, 42), 0, profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("expected a deep traversal, got %d iterations", res.Iterations)
	}
	var ops int64
	for _, ph := range profile.Phases {
		ops += ph.Ops
	}
	full := int64(g.NumVertices()) * int64(res.Iterations)
	if ops >= full {
		t.Fatalf("ops = %d, want << %d (dynamic computation)", ops, full)
	}
}

func TestStatsMessageVolumeIsDegreeSquared(t *testing.T) {
	star := graph.NewBuilder(101, false)
	for i := 1; i <= 100; i++ {
		star.AddEdge(0, graph.VertexID(i))
	}
	path := graph.NewBuilder(101, false)
	for i := 0; i < 100; i++ {
		path.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	vol := func(g *graph.Graph) int64 {
		_, st, err := Stats(g, hw(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalMsgBytes
	}
	if s, p := vol(star.Build()), vol(path.Build()); s < 5*p {
		t.Fatalf("star volume %d should dwarf path volume %d", s, p)
	}
}

func TestConnCombinerBoundsInbox(t *testing.T) {
	p, _ := datagen.ByName("KGS")
	g := p.GenerateScaled(60, 5)
	_, st, err := Conn(g, hw(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With the min-combiner, a vertex's inbox per superstep holds at
	// most one message; peak inbox is bounded by V/nodes * msgsize.
	bound := int64(g.NumVertices()/hw().Nodes+1) * (14 + 16)
	if st.PeakInboxBytes > bound {
		t.Fatalf("peak inbox %d exceeds combiner bound %d", st.PeakInboxBytes, bound)
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	for _, g := range testGraphs(t) {
		wg := graph.WithWeights(g, 99)
		src := algo.PickSource(wg, 42)
		want := algo.RefSSSP(wg, src)
		got, _, err := SSSP(wg, hw(), src, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Dist, want.Dist) {
			t.Fatalf("%v: SSSP distances differ", wg)
		}
		if got.Visited != want.Visited {
			t.Fatalf("%v: visited = %d, want %d", wg, got.Visited, want.Visited)
		}
		if err := algo.ValidateSSSP(wg, src, &got); err != nil {
			t.Fatalf("%v: %v", wg, err)
		}
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	p, _ := datagen.ByName("Amazon")
	g := p.GenerateScaled(60, 5)
	if _, _, err := SSSP(g, hw(), 0, 0, nil); err == nil {
		t.Fatal("SSSP accepted an unweighted graph")
	}
}
