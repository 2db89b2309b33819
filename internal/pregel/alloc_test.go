package pregel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// completeGraph returns an undirected clique of n vertices, dense
// enough that vertices receive many same-superstep messages.
func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	return b.Build()
}

// TestCombinerEquivalence runs the same BFS program with and without a
// min-combiner and checks (a) identical vertex values — sender-side
// combining must not change results — and (b) that message bytes and
// peak inbox both shrink with the combiner on, the Giraph ablation the
// paper calls out.
func TestCombinerEquivalence(t *testing.T) {
	g := completeGraph(24)
	hw := cluster.DAS4(4, 1)

	plain, err := Run(g, hw, bfsProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bfsProgram()
	cfg.Combine = minCombine
	combined, err := Run(g, hw, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	for v := range plain.Values {
		if a, b := plain.Values[v], combined.Values[v]; a != b {
			t.Fatalf("value[%d]: plain %v, combined %v", v, a, b)
		}
	}
	if combined.Stats.TotalMsgBytes >= plain.Stats.TotalMsgBytes {
		t.Fatalf("TotalMsgBytes did not shrink: combined %d >= plain %d",
			combined.Stats.TotalMsgBytes, plain.Stats.TotalMsgBytes)
	}
	if combined.Stats.PeakInboxBytes >= plain.Stats.PeakInboxBytes {
		t.Fatalf("PeakInboxBytes did not shrink: combined %d >= plain %d",
			combined.Stats.PeakInboxBytes, plain.Stats.PeakInboxBytes)
	}
	if combined.Stats.TotalMessages >= plain.Stats.TotalMessages {
		t.Fatalf("TotalMessages did not shrink: combined %d >= plain %d",
			combined.Stats.TotalMessages, plain.Stats.TotalMessages)
	}
}

// floodConfig keeps every vertex active and sending copies messages
// along each out-edge every superstep, so marginal supersteps isolate
// the engine's steady-state cost.
func floodConfig(steps, copies int) Config[i64, i64] {
	return Config[i64, i64]{
		MaxSupersteps: steps,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			for range copies {
				ctx.SendToNeighbors(i64(1))
			}
		},
	}
}

// runAllocs is the mean allocation count of one run of floodConfig.
func runAllocs(t *testing.T, g *graph.Graph, steps, copies int) float64 {
	hw := cluster.DAS4(4, 1)
	return testing.AllocsPerRun(5, func() {
		if _, err := Run(g, hw, floodConfig(steps, copies), nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSuperstepAllocCeiling pins the engine's per-superstep allocation
// count: with pooled workers, outboxes, inboxes, and contexts, the
// steady-state cost is a fixed handful of allocations (barrier
// bookkeeping and goroutine spawns), independent of the vertex count
// and of the message count.
func TestSuperstepAllocCeiling(t *testing.T) {
	g := path(256)
	perStep := func(copies int) float64 {
		short := runAllocs(t, g, 2, copies)
		long := runAllocs(t, g, 12, copies)
		return (long - short) / 10
	}
	one, two := perStep(1), perStep(2)
	t.Logf("allocs per superstep: %.1f at one message an edge, %.1f at two", one, two)

	// 4 partitions: two par.For calls (about ten allocations each: the
	// goroutines' closures and the join), the loop closures, the
	// aggregator map and runtime bookkeeping. Anything near the vertex
	// count (256) means per-vertex pooling has regressed. The figure is
	// 27 with and without -race at GOMAXPROCS 1, 2 and 4; the two
	// allocations of slack absorb a stray runtime allocation, which
	// moves the mean of a run by a fraction.
	const ceiling, slack = 29.0, 2.0
	if one > ceiling {
		t.Fatalf("allocs per superstep = %.1f, want <= %.1f", one, ceiling)
	}
	// Twice the messages fill the same reused outboxes and inboxes: a
	// regrowth per superstep would add at least one allocation a shard.
	if two > one+slack {
		t.Fatalf("allocs per superstep grew with the message count: %.1f at one message an edge, %.1f at two", one, two)
	}
}

// TestRunAllocsIndependentOfVertices pins the flat inboxes: a run
// allocates its per-shard buffers, not an inbox per vertex, so sixteen
// times the vertices cost only the outbox and inbox regrowths.
func TestRunAllocsIndependentOfVertices(t *testing.T) {
	small, large := runAllocs(t, path(256), 2, 1), runAllocs(t, path(4096), 2, 1)
	if grown := large - small; grown > (4096-256)/64 {
		t.Fatalf("a run allocates %.0f times at 256 vertices and %.0f at 4096: %.0f more, want <= %d",
			small, large, grown, (4096-256)/64)
	}
}
