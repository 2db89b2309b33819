package platform

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// pinnedPlatforms is every platform ByName resolves, the GraphLab
// multi-part loader variant included.
var pinnedPlatforms = []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "GraphLab(mp)", "Neo4j"}

// pinScale and pinSeed are the engine packages' test scale (mralgo,
// pactalgo, gasalgo and dbalgo all test on GenerateScaled(60, 5)):
// small enough that the whole matrix runs in about a second.
const pinScale, pinSeed = 60, 5

// modelledRuns renders, for every platform and algorithm on Amazon,
// KGS and Citation at pinScale, under the engine's default layout
// and under an edge-cut placement, the run's status, the exact bits of
// its projected seconds and every execution-profile phase — the
// figures the cost model turns into the paper's numbers. A phase line
// lists cluster.Phase's fields in declaration order.
func modelledRuns(t *testing.T) []byte {
	t.Helper()
	hw := cluster.DAS4(4, 1)
	var out bytes.Buffer
	for _, ds := range []string{"Amazon", "KGS", "Citation"} {
		prof, err := datagen.ByName(ds)
		if err != nil {
			t.Fatal(err)
		}
		g := prof.GenerateScaled(pinScale, pinSeed)
		params := algo.DefaultParams(42)
		params.BFSSource = algo.PickSource(g, 42)
		for _, placement := range []string{"", partition.EdgeCut} {
			for _, name := range pinnedPlatforms {
				p, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range Algorithms() {
					r := p.Run(Spec{
						Algorithm: alg, Dataset: prof, G: g, HW: hw,
						Params: params, WarmCache: true, ScaleFactor: pinScale,
						Partitioner: placement,
					})
					layout := placement
					if layout == "" {
						layout = "default"
					}
					fmt.Fprintf(&out, "# %s %s %s %s\nstatus %v seconds %#016x\n",
						ds, layout, name, alg, r.Status, math.Float64bits(r.Seconds))
					if r.Profile == nil {
						continue
					}
					for _, ph := range r.Profile.Phases {
						fmt.Fprintf(&out, "phase %v\n", ph)
					}
				}
			}
		}
	}
	return out.Bytes()
}

// TestModelledRunsPinned holds every platform's modelled run — status,
// seconds and profile phases — to values recorded before a change of
// engine internals. An engine refactor must leave every line alone; an
// intended change of the model edits testdata/modelled_runs.txt by
// hand. The test never rewrites it.
func TestModelledRunsPinned(t *testing.T) {
	got := modelledRuns(t)
	want, err := os.ReadFile("testdata/modelled_runs.txt")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("runs render %d lines, pin has %d", len(gl), len(wl))
	}
}
