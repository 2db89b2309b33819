package pactalgo_test

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/platform"
)

// The reference tests run the adapter as Stratosphere drives it, on
// Amazon@60 and KGS@60, and check each output with platform.Oracle.
// The root oracle table runs every platform over these graphs and more.
func TestStatsMatchesReference(t *testing.T) { matchesReference(t, platform.STATS) }
func TestBFSMatchesReference(t *testing.T)   { matchesReference(t, platform.BFS) }
func TestConnMatchesReference(t *testing.T)  { matchesReference(t, platform.CONN) }
func TestCDMatchesReference(t *testing.T)    { matchesReference(t, platform.CD) }
func TestEVOMatchesReference(t *testing.T)   { matchesReference(t, platform.EVO) }
func TestSSSPMatchesReference(t *testing.T)  { matchesReference(t, platform.SSSP) }

func matchesReference(t *testing.T, alg string) {
	p, err := platform.ByName("Stratosphere")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Amazon", "KGS"} {
		prof, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := prof.GenerateScaled(60, 5)
		params := algo.DefaultParams(42)
		params.BFSSource = algo.PickSource(g, 42)
		r := p.Run(platform.Spec{Algorithm: alg, Dataset: prof, G: g, HW: cluster.DAS4(4, 1), Params: params, WarmCache: true})
		if r.Status != platform.OK {
			t.Fatalf("%s %s on %s@60: status %v (%v)", p.Name(), alg, name, r.Status, r.Err)
		}
		if err := platform.NewOracle(g, params).Check(r.Output); err != nil {
			t.Errorf("%s %s on %s@60: %v", p.Name(), alg, name, err)
		}
	}
}
