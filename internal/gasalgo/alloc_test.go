package gasalgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/gas"
	"repro/internal/graph"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// runAllocs reports the allocations of one gas.Run of cfg over g.
func runAllocs[V, A any](t *testing.T, g *graph.Graph, cfg gas.Config[V, A]) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := gas.Run(g, hw(), cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsIndependentOfEdges pins that a CONN and a CD run allocate
// the same count on a graph and on one four times its size: values are
// typed, gathers fold into one accumulator per worker and CD's votes
// reuse the worker's buffer, so nothing is allocated per vertex or per
// edge. Both runs stop after the same number of iterations; what
// remains is per-run and per-iteration bookkeeping plus the few
// doublings of the reused worker buffers.
func TestAllocsIndependentOfEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const iters, slack = 4, 16
	p, err := datagen.ByName("Amazon")
	if err != nil {
		t.Fatal(err)
	}
	small, large := p.GenerateScaled(60, 5), p.GenerateScaled(15, 5)
	conn := func(g *graph.Graph) float64 {
		return runAllocs(t, g, gas.Config[connVal, graph.VertexID]{
			Program: connProgram{}, MaxIterations: iters,
			GatherBoth: true, ScatterBoth: true,
			InitialValue: func(v graph.VertexID) connVal { return connVal{Label: v} },
		})
	}
	params := algo.DefaultParams(42)
	cd := func(g *graph.Graph) float64 {
		return runAllocs(t, g, gas.Config[cdVal, []algo.LabelMsg]{
			Program:       cdProgram{attenuation: params.CDHopAttenuation},
			MaxIterations: iters, GatherBoth: true, ScatterBoth: true,
			InitialValue: func(v graph.VertexID) cdVal {
				return cdVal{Label: v, Score: params.CDInitialScore}
			},
		})
	}
	for _, c := range []struct {
		name string
		run  func(*graph.Graph) float64
	}{{"CONN", conn}, {"CD", cd}} {
		a, b := c.run(small), c.run(large)
		t.Logf("%s: %.0f allocations on %v, %.0f on %v", c.name, a, small, b, large)
		if b-a > slack || a-b > slack {
			t.Errorf("%s: %.0f allocations on %v, %.0f on %v; want equal within %d",
				c.name, a, small, b, large, slack)
		}
	}
}
