package gas

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// churnProgram keeps every vertex active every iteration without
// allocating in user code: values pass through Apply unchanged and
// Scatter signals every neighbour.
type churnProgram struct{}

func (churnProgram) Gather(acc *struct{}, has bool, src, v graph.VertexID, srcVal, vVal int64) bool {
	return false
}
func (churnProgram) Apply(v graph.VertexID, old int64, acc *struct{}, has bool) int64 { return old }
func (churnProgram) Scatter(v, dst graph.VertexID, newVal, dstVal int64) bool {
	return true
}
func (churnProgram) ValueSize(int64) int64     { return 8 }
func (churnProgram) AccumSize(*struct{}) int64 { return 0 }

// TestIterationAllocCeiling pins the engine's per-iteration allocation
// count: with double-buffered value/active arrays and per-worker
// scratch, the steady-state cost per iteration is a few bookkeeping
// allocations, independent of the vertex count.
func TestIterationAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	g := ringGraph(256)
	hw := cluster.DAS4(4, 1)
	run := func(iters int) func() {
		return func() {
			cfg := Config[int64, struct{}]{
				Program:       churnProgram{},
				MaxIterations: iters,
				InitialValue:  func(v graph.VertexID) int64 { return 1 },
			}
			if _, err := Run(g, hw, cfg, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, run(2))
	long := testing.AllocsPerRun(5, run(12))
	perIter := (long - short) / 10

	const ceiling = 16.0
	if perIter > ceiling {
		t.Fatalf("allocs per iteration = %.1f, want <= %.1f (short=%.0f long=%.0f)",
			perIter, ceiling, short, long)
	}
}
