package mralgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/mapreduce"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestWarmConnJobAllocCeiling pins the allocations of one warm Hadoop
// CONN job: records are typed values that box nothing, and a warm
// engine refills the previous job's split, sort and output arrays, so
// what remains is per-job and per-task bookkeeping — counters, task
// emitters, the phase records and the output array: 211 allocations
// against 49 128 map output records on this graph. Per-record boxing
// or per-job regrowth of the record arrays shows up here long before
// it shows in wall time.
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
	input := algo.VertexRecords(g, adj, false)
	e := newEngine()
	job := connJob(adj, 0)
	run := func() {
		if _, _, err := mapreduce.Run(e, job, input, input.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the engine's scratch now holds this job's arrays
	const ceiling = 300.0
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Fatalf("a warm CONN job allocates %.0f times, want <= %.0f", allocs, ceiling)
	}
}
