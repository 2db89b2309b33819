package pactalgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestWarmConnJobAllocCeiling pins the allocations of one warm
// Stratosphere CONN job (one iteration's plan): records are typed
// values that box nothing, and a warm engine refills the previous
// plan's split, sort and operator-output arrays, so what remains is
// per-plan and per-operator bookkeeping — the plan's nodes and
// closures, the phase records and the sink's output array: 53
// allocations against 48 640 messages shuffled on this graph.
func TestWarmConnJobAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	p, err := datagen.ByName("KGS")
	if err != nil {
		t.Fatal(err)
	}
	g := p.GenerateScaled(60, 5)
	adj := algo.NewAdjacency(g)
	state := algo.VertexRecords(g, adj, false)
	e := newEngine()
	run := func() {
		var changed int64
		if _, err := dataflow.Execute(e, iterationPlan("conn", 0, state, 0, connExpand(adj), connApply, &changed)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the engine's scratch now holds this plan's arrays
	const ceiling = 100.0
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Fatalf("a warm CONN job allocates %.0f times, want <= %.0f", allocs, ceiling)
	}
}
