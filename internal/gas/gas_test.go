package gas

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

type i64 int64

func (i64) Size() int64 { return 8 }

// minLabel is a CONN-style GAS program: every vertex adopts the
// minimum label among itself and its in-neighbours.
type minLabel struct{}

func (minLabel) Gather(src, v graph.VertexID, srcVal, vVal Value) Accum {
	return srcVal.(i64)
}
func (minLabel) Sum(a, b Accum) Accum {
	if a.(i64) < b.(i64) {
		return a
	}
	return b
}
func (minLabel) Apply(v graph.VertexID, old Value, acc Accum) Value {
	if acc == nil {
		return old
	}
	if m := acc.(i64); m < old.(i64) {
		return m
	}
	return old
}
func (minLabel) Scatter(v, dst graph.VertexID, newVal, dstVal Value) bool {
	return newVal.(i64) < dstVal.(i64)
}

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.Build()
}

func minLabelConfig() Config {
	return Config{
		Program:      minLabel{},
		InitialValue: func(v graph.VertexID) Value { return i64(int64(v)) },
	}
}

func TestMinLabelConverges(t *testing.T) {
	g := ringGraph(10)
	res, err := Run(g, cluster.DAS4(3, 1), minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range res.Values {
		if int64(val.(i64)) != 0 {
			t.Fatalf("vertex %d label = %v, want 0", v, val)
		}
	}
	if res.Stats.Iterations < 5 {
		t.Fatalf("Iterations = %d, want >= ring/2", res.Stats.Iterations)
	}
	if res.Stats.ApplyCalls == 0 || res.Stats.GatherEdges == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
}

func TestDynamicComputationShrinksWork(t *testing.T) {
	// After convergence, no vertices are active; with vote-style
	// scatter, apply calls must be far below V * iterations.
	g := ringGraph(50)
	res, err := Run(g, cluster.DAS4(4, 1), minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(g.NumVertices()) * int64(res.Stats.Iterations)
	if res.Stats.ApplyCalls >= full {
		t.Fatalf("ApplyCalls = %d, want < %d (dynamic computation)", res.Stats.ApplyCalls, full)
	}
}

func TestMaxIterations(t *testing.T) {
	g := ringGraph(40)
	cfg := minLabelConfig()
	cfg.MaxIterations = 3
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", res.Stats.Iterations)
	}
}

func TestUndirectedEdgeDoubling(t *testing.T) {
	// The engine gathers over In() and scatters over Out(); for an
	// undirected graph both equal the full adjacency, so the edge work
	// is twice the logical edge count — the paper's KGS effect.
	g := ringGraph(10) // 10 logical edges
	cfg := minLabelConfig()
	cfg.MaxIterations = 1
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GatherEdges != 20 {
		t.Fatalf("GatherEdges = %d, want 20 (doubled)", res.Stats.GatherEdges)
	}
}

func TestReplicationFactor(t *testing.T) {
	g := ringGraph(100)
	res, err := Run(g, cluster.DAS4(8, 1), minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rf := res.Stats.ReplicationFactor
	if rf < 1 || rf > 8 {
		t.Fatalf("ReplicationFactor = %v", rf)
	}
	// One machine: no replication.
	res1, err := Run(g, cluster.SingleNode(), minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.ReplicationFactor != 1 {
		t.Fatalf("single node replication = %v", res1.Stats.ReplicationFactor)
	}
	if res1.Stats.NetBytes != 0 {
		t.Fatalf("single node NetBytes = %d", res1.Stats.NetBytes)
	}
}

func TestSingleVsMultiPartLoading(t *testing.T) {
	g := ringGraph(100)
	run := func(mp bool) cluster.Breakdown {
		cfg := minLabelConfig()
		cfg.InputBytes = 500 << 20
		cfg.MultiPartLoading = mp
		profile := &cluster.ExecutionProfile{}
		if _, err := Run(g, cluster.DAS4(10, 1), cfg, profile); err != nil {
			t.Fatal(err)
		}
		return cluster.GraphLabCosts().Time(profile, cluster.DAS4(10, 1))
	}
	single, mp := run(false), run(true)
	if mp.Read >= single.Read {
		t.Fatalf("mp load %.2fs should beat single-file load %.2fs", mp.Read, single.Read)
	}
}

func TestProfileShape(t *testing.T) {
	g := ringGraph(30)
	profile := &cluster.ExecutionProfile{}
	cfg := minLabelConfig()
	cfg.InputBytes = 1000
	res, err := Run(g, cluster.DAS4(3, 1), cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	if profile.Iterations != res.Stats.Iterations {
		t.Fatalf("profile iterations %d != stats %d", profile.Iterations, res.Stats.Iterations)
	}
	kinds := map[cluster.PhaseKind]int{}
	for _, ph := range profile.Phases {
		kinds[ph.Kind]++
	}
	if kinds[cluster.PhaseRead] != 1 || kinds[cluster.PhaseWrite] != 1 || kinds[cluster.PhaseSetup] != 1 {
		t.Fatalf("phase kinds = %v", kinds)
	}
	if kinds[cluster.PhaseCompute] != res.Stats.Iterations {
		t.Fatalf("compute phases = %d, want %d", kinds[cluster.PhaseCompute], res.Stats.Iterations)
	}
	if profile.PeakMemPerNode <= 0 {
		t.Fatal("PeakMemPerNode not recorded")
	}
}

func TestMissingProgram(t *testing.T) {
	if _, err := Run(ringGraph(4), cluster.DAS4(1, 1), Config{}, nil); err == nil {
		t.Fatal("want error")
	}
}

func TestInitiallyActiveSubset(t *testing.T) {
	g := ringGraph(10)
	cfg := minLabelConfig()
	cfg.InitiallyActive = func(v graph.VertexID) bool { return v == 5 }
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Label 0 can only spread after vertex 0 itself becomes active via
	// signalling from 5's wave; min-label still converges to 0
	// eventually because activation propagates.
	if int64(res.Values[5].(i64)) != 0 {
		t.Fatalf("label[5] = %v, want 0", res.Values[5])
	}
}

func TestDeterministic(t *testing.T) {
	g := ringGraph(64)
	run := func() []Value {
		res, err := Run(g, cluster.DAS4(5, 1), minLabelConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i].(i64) != b[i].(i64) {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}
