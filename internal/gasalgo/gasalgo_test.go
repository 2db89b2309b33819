package gasalgo

import (
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

func TestUndirectedGatherWorkDoubled(t *testing.T) {
	// The paper's KGS effect: GraphLab's directed store doubles the
	// per-iteration edge work on undirected graphs.
	p, _ := datagen.ByName("KGS")
	g := p.GenerateScaled(100, 5)
	profile := &cluster.ExecutionProfile{}
	_, st, err := Stats(g, hw(), 1000, false, profile)
	if err != nil {
		t.Fatal(err)
	}
	if st.GatherEdges != 2*g.NumEdges() {
		t.Fatalf("GatherEdges = %d, want 2E = %d", st.GatherEdges, 2*g.NumEdges())
	}
}

func TestEVOProfileShape(t *testing.T) {
	g := testGraphs(t)[0]
	p := algo.DefaultParams(7)
	profile := &cluster.ExecutionProfile{}
	if _, err := EVO(g, hw(), p, 5000, false, profile); err != nil {
		t.Fatal(err)
	}
	compute := 0
	for _, ph := range profile.Phases {
		if ph.Kind == cluster.PhaseCompute {
			compute++
		}
	}
	if compute != p.EVOIterations {
		t.Fatalf("compute phases = %d, want %d", compute, p.EVOIterations)
	}
	if profile.Iterations != p.EVOIterations {
		t.Fatalf("Iterations = %d", profile.Iterations)
	}
}

func TestMultiPartLoadingFaster(t *testing.T) {
	g := testGraphs(t)[1]
	run := func(mp bool) float64 {
		profile := &cluster.ExecutionProfile{}
		src := algo.PickSource(g, 42)
		if _, _, err := BFS(g, hw(), src, 500<<20, mp, profile); err != nil {
			t.Fatal(err)
		}
		return cluster.GraphLabCosts().Time(profile, hw()).Read
	}
	if single, mp := run(false), run(true); mp >= single {
		t.Fatalf("mp load %.2f should beat single %.2f", mp, single)
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := testGraphs(t)[0]
	if _, _, err := SSSP(g, hw(), 0, 1000, false, nil); err == nil {
		t.Fatal("SSSP accepted an unweighted graph")
	}
}
