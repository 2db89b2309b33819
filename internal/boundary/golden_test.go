package boundary

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/platform"
)

// predictions renders PredictFor for every platform ByName resolves,
// the GraphLab multi-part loader variant included, every algorithm and
// every dataset at testScale on DAS4(20, 1): the exact bits of the
// bound, the crash and timeout predictions, the iteration bound and
// the per-iteration message bound.
func predictions(t *testing.T) []byte {
	t.Helper()
	hw := cluster.DAS4(20, 1)
	var out bytes.Buffer
	for _, ds := range datagen.Names() {
		in, prof := inputsFor(t, ds)
		for _, name := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "GraphLab(mp)", "Neo4j"} {
			for _, alg := range platform.Algorithms() {
				est, err := PredictFor(name, alg, prof, in, hw)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %s %s seconds %#016x crash %v timeout %v iterations %d msgbytes %d\n",
					ds, name, alg, math.Float64bits(est.Seconds), est.Crash, est.Timeout, est.Iterations, est.MsgBytes)
			}
		}
	}
	return out.Bytes()
}

// TestPredictionsPinned holds every prediction to values recorded
// before a change of how the model reads platform facts. A refactor
// must leave every line alone; an intended change of the model edits
// testdata/predict.txt by hand. The test never rewrites it.
func TestPredictionsPinned(t *testing.T) {
	got := predictions(t)
	want, err := os.ReadFile("testdata/predict.txt")
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
		t.Fatalf("predictions render %d lines, pin has %d", len(gl), len(wl))
	}
}
