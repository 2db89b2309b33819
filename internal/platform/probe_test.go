package platform

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
)

func TestProbeMatrix(t *testing.T) {
	if os.Getenv("PROBE") == "" {
		t.Skip("set PROBE=1")
	}
	hw := cluster.DAS4(20, 1)
	for _, prof := range datagen.Profiles() {
		if os.Getenv("DS") != "" && os.Getenv("DS") != prof.Name {
			continue
		}
		g := prof.GenerateScaled(1, 42)
		params := algo.DefaultParams(42)
		params.BFSSource = algo.PickSource(g, 42)
		for _, alg := range Algorithms() {
			if os.Getenv("ALG") != "" && os.Getenv("ALG") != alg {
				continue
			}
			for _, p := range All() {
				start := time.Now()
				spec := Spec{Algorithm: alg, Dataset: prof, G: g, HW: hw, Params: params, WarmCache: true}
				r := p.Run(spec)
				fmt.Printf("%-11s %-6s %-12s %-7s T=%9.1fs Tc=%8.1fs wall=%6.2fs iters=%d\n",
					prof.Name, alg, p.Name(), r.Status, r.Seconds, r.ComputeSeconds, time.Since(start).Seconds(), r.Iterations)
			}
		}
	}
}
