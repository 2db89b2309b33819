package graphbench

import (
	"testing"

	"repro/internal/perf"
)

// TestGapBFSSpeedupGate pins the PR's headline claim to the committed
// baselines: the direction-optimizing BFS kernel (BENCH_pr7.json,
// gap-bfs-dotaleague) must be at least 5x faster in ns/op than the
// engine-level BFS macro entry it replaces on the hot path
// (BENCH_pr2.json, pregel-bfs-dotaleague). The gate compares committed
// figures — both measured on the same machine in the same session — so
// it is deterministic in CI and machine-independent.
func TestGapBFSSpeedupGate(t *testing.T) {
	ref := committedNs(t, "BENCH_pr2.json", "pregel-bfs-dotaleague")
	gap := committedNs(t, "BENCH_pr7.json", "gap-bfs-dotaleague")
	speedup := ref / gap
	t.Logf("direction-optimizing BFS: %.0f ns/op vs engine %.0f ns/op = %.1fx", gap, ref, speedup)
	if speedup < 5 {
		t.Fatalf("committed speedup %.2fx < 5x gate", speedup)
	}
}

// committedNs is the committed ns/op of one baseline entry (After when
// recorded, else Before) — what the speedup gates here and in
// serve_gate_test.go compare.
func committedNs(t *testing.T, path, name string) float64 {
	t.Helper()
	bl, err := perf.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := bl.Benchmarks[name]
	if rec == nil {
		t.Fatalf("%s: no %q entry", path, name)
	}
	m := rec.After
	if m == nil {
		m = rec.Before
	}
	if m == nil || m.NsPerOp <= 0 {
		t.Fatalf("%s: %q has no committed measurement", path, name)
	}
	return m.NsPerOp
}
