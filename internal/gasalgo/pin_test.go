package gasalgo

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/partition"
)

// modelledCounts renders, for every GAS program on every test graph,
// the whole gas.Stats and every profile phase — the figures the cost
// model turns into simulated seconds. It runs each program under the
// default vertex-cut (mirror-sync bytes: ValueSize + AccumSize) and
// under an edge-cut placement (ghost fetches: ValueSize per remote
// gather).
func modelledCounts(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	p := algo.DefaultParams(42)
	for _, g := range testGraphs(t) {
		wg := graph.WithWeights(g, 99)
		runs := []struct {
			name string
			run  func(profile *cluster.ExecutionProfile) (*gas.Stats, error)
		}{
			{"STATS", func(pr *cluster.ExecutionProfile) (*gas.Stats, error) {
				_, st, err := Stats(g, hw(), 1000, false, pr)
				return st, err
			}},
			{"BFS", func(pr *cluster.ExecutionProfile) (*gas.Stats, error) {
				_, st, err := BFS(g, hw(), algo.PickSource(g, 42), 1000, false, pr)
				return st, err
			}},
			{"SSSP", func(pr *cluster.ExecutionProfile) (*gas.Stats, error) {
				_, st, err := SSSP(wg, hw(), algo.PickSource(wg, 42), 1000, false, pr)
				return st, err
			}},
			{"CONN", func(pr *cluster.ExecutionProfile) (*gas.Stats, error) {
				_, st, err := Conn(g, hw(), 1000, false, pr)
				return st, err
			}},
			{"CD", func(pr *cluster.ExecutionProfile) (*gas.Stats, error) {
				_, st, err := CD(g, hw(), p, 1000, false, pr)
				return st, err
			}},
		}
		edgeCut, err := partition.Build(partition.EdgeCut, g, hw().Nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, placement := range []struct {
			name string
			part *partition.Partitioning
		}{{"vertexcut", nil}, {"edgecut", edgeCut}} {
			for _, r := range runs {
				profile := &cluster.ExecutionProfile{Part: placement.part}
				st, err := r.run(profile)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "# %v %s %s\nstats %+v\n", g, r.name, placement.name, *st)
				for _, ph := range profile.Phases {
					fmt.Fprintf(&out, "phase %+v\n", ph)
				}
			}
		}
	}
	return out.Bytes()
}

// TestModelledCountsPinned holds every GAS program's modelled counts
// to values recorded before the engine moved to typed values and a
// folded accumulator. The outputs tests cannot see a wrong AccumSize
// or ValueSize: it only moves gas.net_bytes and simulated seconds.
// An intended change of the model edits testdata/modelled_counts.txt
// by hand; the test never rewrites it.
func TestModelledCountsPinned(t *testing.T) {
	got := modelledCounts(t)
	want, err := os.ReadFile("testdata/modelled_counts.txt")
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
		t.Fatalf("counts have %d lines, pin has %d", len(gl), len(wl))
	}
}
