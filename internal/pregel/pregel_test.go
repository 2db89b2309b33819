package pregel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
)

type i64 int64

func (i64) Size() int64 { return 8 }

// minCombine folds the smaller of two messages into dst.
func minCombine(dst *i64, m i64) {
	if m < *dst {
		*dst = m
	}
}

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return b.Build()
}

// bfsProgram computes BFS levels from vertex 0 via message flooding;
// an unreached vertex holds -1.
func bfsProgram() Config[i64, i64] {
	return Config[i64, i64]{
		InitialValue: func(graph.VertexID) i64 { return -1 },
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			if ctx.Superstep() == 0 {
				if ctx.ID() == 0 {
					ctx.SetValue(i64(0))
					ctx.SendToNeighbors(i64(1))
				}
				ctx.VoteToHalt()
				return
			}
			cur := int64(ctx.Value())
			seen := cur >= 0
			best := int64(-1)
			for _, m := range msgs {
				d := int64(m)
				if best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && (!seen || best < cur) {
				ctx.SetValue(i64(best))
				ctx.SendToNeighbors(i64(best + 1))
			}
			ctx.VoteToHalt()
		},
		InitiallyActive: func(v graph.VertexID) bool { return true },
	}
}

func TestBFSLevelsOnPath(t *testing.T) {
	g := path(6)
	res, err := Run(g, cluster.DAS4(3, 1), bfsProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if got := int64(res.Values[v]); got != int64(v) {
			t.Fatalf("level[%d] = %d, want %d", v, got, v)
		}
	}
	// Path of 6: source at superstep 0 plus 5 propagation steps, plus
	// one quiescent check round.
	if res.Stats.Supersteps < 6 || res.Stats.Supersteps > 7 {
		t.Fatalf("supersteps = %d", res.Stats.Supersteps)
	}
}

func TestVoteToHaltTerminates(t *testing.T) {
	g := path(4)
	cfg := Config[i64, i64]{
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", res.Stats.Supersteps)
	}
}

func TestMaxSupersteps(t *testing.T) {
	g := path(4)
	cfg := Config[i64, i64]{
		MaxSupersteps: 3,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			ctx.SendToNeighbors(i64(1)) // never halts voluntarily
		},
	}
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want 3", res.Stats.Supersteps)
	}
}

func TestCombinerShrinksInbox(t *testing.T) {
	// Star: many leaves message the hub; a min-combiner collapses the
	// inbox to one message.
	n := 50
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	g := b.Build()
	mkCfg := func(comb func(*i64, i64)) Config[i64, i64] {
		return Config[i64, i64]{
			Combine:       comb,
			MaxSupersteps: 2,
			Program: func(ctx *Context[i64, i64], msgs []i64) {
				if ctx.Superstep() == 0 && ctx.ID() != 0 {
					ctx.Send(0, i64(int64(ctx.ID())))
				}
				ctx.VoteToHalt()
			},
		}
	}
	plain, err := Run(g, cluster.DAS4(4, 1), mkCfg(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(g, cluster.DAS4(4, 1), mkCfg(minCombine), nil)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Stats.PeakInboxBytes >= plain.Stats.PeakInboxBytes {
		t.Fatalf("combiner inbox %d should be < plain %d",
			combined.Stats.PeakInboxBytes, plain.Stats.PeakInboxBytes)
	}
}

func TestAggregators(t *testing.T) {
	g := path(5)
	cfg := Config[i64, i64]{
		MaxSupersteps: 2,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			if ctx.Superstep() == 0 {
				ctx.Aggregate("count", 1)
				return // stay active to observe the aggregate
			}
			if got := ctx.Aggregated("count"); got != 5 {
				panic("aggregate not visible")
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps != 2 {
		t.Fatalf("supersteps = %d", res.Stats.Supersteps)
	}
}

func TestNetBytesOnlyCrossPartition(t *testing.T) {
	// Two vertices on the same node (single node): no network traffic.
	g := path(2)
	cfg := Config[i64, i64]{
		MaxSupersteps: 2,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(i64(1))
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, cluster.DAS4(1, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NetBytes != 0 {
		t.Fatalf("single node NetBytes = %d, want 0", res.Stats.NetBytes)
	}
	if res.Stats.TotalMessages != 2 {
		t.Fatalf("TotalMessages = %d, want 2", res.Stats.TotalMessages)
	}

	// Same graph on two nodes: vertices 0,1 land on different
	// partitions, so the same messages cross the network.
	res2, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.NetBytes == 0 {
		t.Fatal("two nodes should see network traffic")
	}
}

func TestProfilePhases(t *testing.T) {
	g := path(6)
	profile := &cluster.ExecutionProfile{}
	if _, err := Run(g, cluster.DAS4(3, 1), bfsProgram(), profile); err != nil {
		t.Fatal(err)
	}
	if profile.Iterations < 6 {
		t.Fatalf("Iterations = %d", profile.Iterations)
	}
	barriers := 0
	for _, ph := range profile.Phases {
		barriers += ph.Barriers
	}
	if barriers != profile.Iterations {
		t.Fatalf("barriers = %d, want one per superstep (%d)", barriers, profile.Iterations)
	}
	if profile.Phases[0].Kind != cluster.PhaseSetup || profile.Phases[0].Jobs != 1 {
		t.Fatalf("first phase = %+v, want single-job setup", profile.Phases[0])
	}
}

func TestMissingProgram(t *testing.T) {
	if _, err := Run(path(2), cluster.DAS4(1, 1), Config[i64, i64]{}, nil); err == nil {
		t.Fatal("want error for missing program")
	}
}

func TestInitialValueAndActive(t *testing.T) {
	g := path(4)
	cfg := Config[i64, i64]{
		MaxSupersteps: 1,
		InitialValue:  func(v graph.VertexID) i64 { return i64(int64(v) * 10) },
		InitiallyActive: func(v graph.VertexID) bool {
			return v == 2
		},
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			if ctx.ID() != 2 {
				panic("inactive vertex computed")
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, cluster.DAS4(2, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Values[3]) != 30 {
		t.Fatalf("initial value lost: %v", res.Values[3])
	}
	if res.Stats.ComputeCalls == 0 {
		t.Fatal("ComputeCalls not recorded")
	}
}

func TestDeterministicResults(t *testing.T) {
	g := func() *graph.Graph {
		b := graph.NewBuilder(200, false)
		for i := 0; i < 199; i++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
			b.AddEdge(graph.VertexID(i), graph.VertexID((i*7)%200))
		}
		return b.Build()
	}()
	run := func() []i64 {
		res, err := Run(g, cluster.DAS4(7, 1), bfsProgram(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic value at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCheckpointing(t *testing.T) {
	g := path(12)
	// A plan with no rules injects nothing but still sets the cadence.
	profile := &cluster.ExecutionProfile{Fault: fault.New(fault.Plan{CheckpointEvery: 3}, nil)}
	ck, err := Run(g, cluster.DAS4(3, 1), bfsProgram(), profile)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, ph := range profile.Phases {
		if ph.Kind == cluster.PhaseWrite && ph.DiskWrite > 0 {
			checkpoints++
		}
	}
	// Path of 12 runs ~12 supersteps: one checkpoint every 3.
	if checkpoints < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", checkpoints)
	}

	// Checkpointing must not change results.
	plain, err := Run(g, cluster.DAS4(3, 1), bfsProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Values {
		if plain.Values[v] != ck.Values[v] {
			t.Fatalf("checkpointing changed results at %d", v)
		}
	}
}
