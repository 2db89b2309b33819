package pregelalgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
)

func hw() cluster.Hardware { return cluster.DAS4(5, 1) }

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

func TestSSSPRequiresWeights(t *testing.T) {
	p, _ := datagen.ByName("Amazon")
	g := p.GenerateScaled(60, 5)
	if _, _, err := SSSP(g, hw(), 0, 0, nil); err == nil {
		t.Fatal("SSSP accepted an unweighted graph")
	}
}
