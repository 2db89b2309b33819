package graphbench

import (
	"testing"

	"repro/internal/perf"
)

// TestBatchSpeedupGate pins the serving path's headline claims to the
// committed baseline (BENCH_pr8.json). Sweep only: a 64-lane batched
// multi-source BFS (serve-bfs-batch64-dotaleague) must amortize to at
// least 8x less work per query than running the solo
// direction-optimizing BFS 64 times (serve-bfs-single-dotaleague).
// What a served query actually pays — sweep plus certificate — must
// amortize by 8x too: solo BFS plus one ValidateBFS against a 64th of
// the batch sweep plus the batch certificate. And the batch certificate
// (serve-certify-batch64-dotaleague) itself must cost at most an eighth
// of the 64 per-lane ones (serve-certify-perlane64-dotaleague).
// The gate compares committed figures — all measured on the same
// machine in the same `bench serve` session — so it is deterministic in
// CI and machine-independent.
func TestBatchSpeedupGate(t *testing.T) {
	single := committedNs(t, "BENCH_pr8.json", "serve-bfs-single-dotaleague")
	batch := committedNs(t, "BENCH_pr8.json", "serve-bfs-batch64-dotaleague")
	perQuery := batch / float64(perf.ServeBatchLanes)
	amortization := single / perQuery
	t.Logf("batched BFS: %.0f ns/sweep = %.0f ns/query vs solo %.0f ns/query = %.1fx amortization",
		batch, perQuery, single, amortization)
	if amortization < 8 {
		t.Fatalf("committed per-query amortization %.2fx < 8x gate", amortization)
	}

	perLane := committedNs(t, "BENCH_pr8.json", "serve-certify-perlane64-dotaleague")
	certBatch := committedNs(t, "BENCH_pr8.json", "serve-certify-batch64-dotaleague")
	lanes := float64(perf.ServeBatchLanes)
	soloServed := single + perLane/lanes
	batchServed := (batch + certBatch) / lanes
	t.Logf("certified query: %.0f ns batched vs %.0f ns solo = %.1fx amortization; certificate %.0f ns/batch vs %.0f ns per-lane = %.1fx",
		batchServed, soloServed, soloServed/batchServed, certBatch, perLane, perLane/certBatch)
	if soloServed/batchServed < 8 {
		t.Fatalf("committed sweep+certificate amortization %.2fx < 8x gate", soloServed/batchServed)
	}
	if perLane/certBatch < 8 {
		t.Fatalf("committed batch certificate is only %.2fx cheaper than 64 per-lane ones, gate is 8x", perLane/certBatch)
	}
}
