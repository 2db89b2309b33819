package mapreduce

import (
	"runtime/debug"
	"testing"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestReducerSeesValuesInMapTaskOrder pins the stable sort under the
// reduce phase: the values of one key reach the reducer in map-task
// order, and within a task in emit order. Each value is tagged with its
// input position; contiguous splits make map task m's positions all
// precede task m+1's.
func TestReducerSeesValuesInMapTaskOrder(t *testing.T) {
	in := makeInput(6000)
	cfg := JobConfig[intVal]{
		Name: "order",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
			out.Emit(k*7919%257-128, intVal(k))
		}),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			for i := 1; i < len(vals); i++ {
				if vals[i] <= vals[i-1] {
					out.Incr("unordered", 1)
				}
			}
			out.Emit(k, intVal(len(vals)))
		}),
		NumMaps: 6, NumReduces: 3,
	}
	out, stats, err := Run(newEngine(4), cfg, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 257 {
		t.Fatalf("%d groups, want 257", len(out))
	}
	if n := stats.Counters.Get("unordered"); n != 0 {
		t.Fatalf("%d values out of map-task order", n)
	}
}

// fanoutJob emits fanout records of distinct keys per input record
// and reduces to nothing, so a job's allocation count is fixed apart
// from what grows with the map output.
func fanoutJob(fanout int) JobConfig[intVal] {
	return JobConfig[intVal]{
		Name: "fanout",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
			for i := 0; i < fanout; i++ {
				out.Emit(k*int64(fanout)+int64(i), 1)
			}
		}),
		Reducer:    ReducerFunc[intVal](func(int64, []intVal, *Emitter[intVal]) {}),
		NumMaps:    1,
		NumReduces: 1,
	}
}

// TestMapEmitBufferReused pins the reused map output: once a job has
// run on an engine, the next job's map phase takes its emit buffer
// from the engine's scratch, so a job's allocation count does not grow
// with its map output. (Regrowing the buffer by append costs one
// allocation per growth step.)
func TestMapEmitBufferReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	// No collection may empty the key sort's pooled scratch between
	// two runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := makeInput(10)
	allocs := func(fanout int) float64 {
		cfg := fanoutJob(fanout)
		e := newEngine(1)
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Run(e, cfg, in, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(10), allocs(5000); big != small {
		t.Fatalf("a job emitting 50 000 records allocates %v times, one emitting 100 %v times: the map output buffer is not reused", big, small)
	}
}
