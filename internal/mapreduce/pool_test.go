package mapreduce

import (
	"runtime"
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
	cfg := JobConfig{
		Name: "order",
		Mapper: MapperFunc(func(k int64, v Value, out *Emitter) {
			out.Emit(k*7919%257-128, intVal(k))
		}),
		Reducer: ReducerFunc(func(k int64, vals []Value, out *Emitter) {
			for i := 1; i < len(vals); i++ {
				if vals[i].(intVal) <= vals[i-1].(intVal) {
					out.Incr("unordered", 1)
				}
			}
			out.Emit(k, intVal(len(vals)))
		}),
		NumMaps: 6, NumReduces: 3,
	}
	out, stats, err := newEngine(4).Run(cfg, in, 0)
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
func fanoutJob(fanout int) JobConfig {
	one := Value(intVal(1)) // boxed once: Emit allocates nothing itself
	return JobConfig{
		Name: "fanout",
		Mapper: MapperFunc(func(k int64, v Value, out *Emitter) {
			for i := 0; i < fanout; i++ {
				out.Emit(k*int64(fanout)+int64(i), one)
			}
		}),
		Reducer:    ReducerFunc(func(int64, []Value, *Emitter) {}),
		NumMaps:    1,
		NumReduces: 1,
	}
}

// TestMapEmitBufferReused pins the pooled map output: once a job has
// run, an identical job's map phase takes its emit buffer from the
// pool, so a job's allocation count does not grow with its map output.
// (Regrowing the buffer by append costs one allocation per growth step.)
func TestMapEmitBufferReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation and drops pooled buffers")
	}
	// No collection may empty the pool between two runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := makeInput(10)
	allocs := func(fanout int) float64 {
		cfg := fanoutJob(fanout)
		return testing.AllocsPerRun(5, func() {
			if _, _, err := newEngine(1).Run(cfg, in, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(10), allocs(5000); big != small {
		t.Fatalf("a job emitting 50 000 records allocates %v times, one emitting 100 %v times: the map output buffer is not reused", big, small)
	}
}

// TestPooledEmitBufferHoldsNoValues pins the clear before the pool:
// a released map output buffer must not keep the job's values alive.
func TestPooledEmitBufferHoldsNoValues(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	// One processor: the pool hands back what this goroutine put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := newEngine(1).Run(fanoutJob(100), makeInput(10), 0); err != nil {
		t.Fatal(err)
	}
	buf := emitBuffers.Get().(*[]KV)
	defer emitBuffers.Put(buf)
	if cap(*buf) < 1000 {
		t.Fatalf("pool returned a buffer of capacity %d, not the map task's", cap(*buf))
	}
	for i, kv := range (*buf)[:cap(*buf)] {
		if kv.Value != nil {
			t.Fatalf("pooled emit buffer still holds record %d's value", i)
		}
	}
}
