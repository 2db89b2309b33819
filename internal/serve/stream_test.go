package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
)

// TestServerMutate pins the mutation API's exactly-once contract at
// the serve layer: statuses, epochs, buffered reordering, duplicate
// drops, and auto-compaction at CompactEvery.
func TestServerMutate(t *testing.T) {
	cacheDir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.CompactEvery = 2
		c.CacheDir = cacheDir
	})
	g, _ := s.Graph("DotaLeague")
	batches := datagen.UpdateStream(g, 9, 4, 4, 0.25)

	// Out of order: batch 2 buffers, batch 1 applies both.
	ans, err := s.Mutate("DotaLeague", batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status != evolve.StatusBuffered || ans.Epoch != 0 || ans.Applied != 0 {
		t.Fatalf("out-of-order batch: %+v", ans)
	}
	ans, err = s.Mutate("DotaLeague", batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status != evolve.StatusApplied || ans.Epoch != 2 || ans.Applied != 2 {
		t.Fatalf("gap-filling batch: %+v", ans)
	}
	if !ans.Compacted {
		t.Fatalf("CompactEvery=2 with 2 applied batches did not compact: %+v", ans)
	}
	// The cross-check rebuilt the union-find once if a deletion dirtied
	// it, passed, and its time was counted.
	var rebuilds int64
	for _, b := range batches[:2] {
		for _, op := range b.Ops {
			if op.Del {
				rebuilds = 1
			}
		}
	}
	reg := s.Config().Obs.R()
	if got := reg.Counter("serve.cc.rebuilds").Get(); got != rebuilds {
		t.Fatalf("serve.cc.rebuilds = %d, want %d", got, rebuilds)
	}
	if got := reg.Counter("serve.compact.failures").Get(); got != 0 {
		t.Fatalf("serve.compact.failures = %d after a passing cross-check", got)
	}
	if reg.Counter("serve.compact.ns").Get() <= 0 {
		t.Fatal("serve.compact.ns did not count the compaction")
	}
	// The compacted snapshot landed in the cache dir under its evolved key.
	key := datagen.EvolvedSnapshotKey("DotaLeague", s.Config().Scale, s.Config().Seed, 2)
	if _, err := os.Stat(filepath.Join(cacheDir, key)); err != nil {
		t.Fatalf("compaction snapshot not written: %v", err)
	}

	// Duplicate of an already-applied batch is dropped.
	ans, err = s.Mutate("DotaLeague", batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status != evolve.StatusDuplicate || ans.Applied != 0 || ans.Epoch != 2 {
		t.Fatalf("duplicate batch: %+v", ans)
	}

	// Queries at the new epoch see the mutated graph and report it.
	st, err := s.Stats("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.BaseEpoch != 2 || st.Compactions != 1 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	snap, err := s.Snapshot("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 2 || !snap.OverlayEmpty() {
		t.Fatalf("snapshot after compaction: epoch %d, overlay %d vertices",
			snap.Epoch(), snap.OverlayVertices())
	}

	// An invalid batch is rejected with the typed error and no epoch
	// movement.
	if _, err := s.Mutate("DotaLeague", evolve.Batch{Seq: 0}); err == nil {
		t.Fatal("Seq 0 accepted")
	}
	if _, err := s.Mutate("nope", batches[2]); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// absentEdge finds a vertex pair with no edge in either direction.
func absentEdge(t *testing.T, g *graph.Graph) (u, v graph.VertexID) {
	t.Helper()
	n := g.NumVertices()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(graph.VertexID(a), graph.VertexID(b)) && !g.HasEdge(graph.VertexID(b), graph.VertexID(a)) {
				return graph.VertexID(a), graph.VertexID(b)
			}
		}
	}
	t.Skip("graph is complete")
	return 0, 0
}

// TestServerQueriesSeeOverlay: with mutations applied but NOT yet
// compacted, BFS answers must reflect the overlay (snapshot path) and
// carry the live epoch.
func TestServerQueriesSeeOverlay(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CompactEvery = -1 })
	g, _ := s.Graph("DotaLeague")
	u, v := absentEdge(t, g)
	ans, err := s.Mutate("DotaLeague", evolve.Batch{Seq: 1, Ops: []evolve.Op{evolve.Insert(u, v)}})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != 1 || ans.Compacted {
		t.Fatalf("mutate: %+v", ans)
	}
	bfs, err := s.BFS(context.Background(), "DotaLeague", u, v)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Epoch != 1 {
		t.Fatalf("BFS epoch %d, want 1", bfs.Epoch)
	}
	if !bfs.Reachable || bfs.Dist != 1 {
		t.Fatalf("inserted edge not visible to BFS: %+v", bfs)
	}
	if bfs.Cached {
		t.Fatal("overlay-epoch answer claims a batcher cache hit")
	}
	comp, err := s.Component(context.Background(), "DotaLeague", u)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Epoch != 1 {
		t.Fatalf("component epoch %d, want 1", comp.Epoch)
	}
}

// TestHandlerMutate drives /mutate and /compact over HTTP, including
// the 400 mapping for invalid batches.
func TestHandlerMutate(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CompactEvery = -1 })
	h := s.Handler()
	g, _ := s.Graph("DotaLeague")
	au, av := absentEdge(t, g)

	rec := postJSON(h, "/mutate",
		fmt.Sprintf(`{"dataset":"DotaLeague","seq":1,"ops":[{"src":%d,"dst":%d}]}`, au, av))
	if rec.Code != http.StatusOK {
		t.Fatalf("/mutate: %d (%s)", rec.Code, rec.Body.String())
	}
	var ans MutateAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Status != evolve.StatusApplied || ans.Epoch != 1 {
		t.Fatalf("/mutate answer: %+v", ans)
	}

	cases := []struct {
		name, body string
		status     int
	}{
		{"seq zero", `{"dataset":"DotaLeague","seq":0,"ops":[]}`, 400},
		{"bad vertex", `{"dataset":"DotaLeague","seq":2,"ops":[{"src":1,"dst":99999999}]}`, 400},
		{"unknown field", `{"dataset":"DotaLeague","seq":2,"oops":[]}`, 400},
		{"unknown dataset", `{"dataset":"zzz","seq":2,"ops":[]}`, 404},
		{"duplicate", `{"dataset":"DotaLeague","seq":1,"ops":[{"src":1,"dst":0}]}`, 200},
		// Well-formed and next in sequence, so only the body bound stops
		// it; the epoch check after /compact shows it was not applied.
		{"oversized body", `{"dataset":"DotaLeague","seq":2,"ops":[` +
			strings.Repeat(`{"src":1,"dst":0},`, maxBodyBytes/18) + `{"src":1,"dst":0}]}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, "/mutate", tc.body)
			if rec.Code != tc.status {
				t.Fatalf("%s: %d, want %d (%s)", tc.body, rec.Code, tc.status, rec.Body.String())
			}
		})
	}

	rec = postJSON(h, "/compact", `{"dataset":"DotaLeague"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/compact: %d (%s)", rec.Code, rec.Body.String())
	}
	var ca CompactAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ca); err != nil {
		t.Fatal(err)
	}
	if ca.Epoch != 1 || ca.Compactions != 1 {
		t.Fatalf("/compact answer: %+v", ca)
	}
}

// noGoroutineLeak requires the goroutine count to be back at its
// pre-test value once the test and its later-registered cleanups
// (server Close) are done: every user, dispatcher and delivery
// goroutine a fleet run started must have exited.
func noGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for try := 0; runtime.NumGoroutine() > before; try++ {
			if try == 100 {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before the test, %d after:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestRunStreamSweep is the read/write-mix sweep at test scale: every
// row must MATCH the clean replay with zero torn epochs, and the runs
// must actually cross compaction points (where the incremental
// component labels are cross-checked against full recomputation).
func TestRunStreamSweep(t *testing.T) {
	noGoroutineLeak(t)
	rep, err := RunStream(StreamConfig{
		Mixes:      []StreamMix{{90, 10}, {50, 50}},
		Users:      16,
		OpsPerUser: 24,
		Batches:    32,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Ok() {
		t.Fatalf("stream sweep failed:\n%s", rep)
	}
	for _, row := range rep.Rows {
		if row.FinalEpoch != 32 {
			t.Fatalf("mix %s: final epoch %d, want 32", row.Mix, row.FinalEpoch)
		}
		if row.Compacted == 0 {
			t.Fatalf("mix %s: no compaction points crossed", row.Mix)
		}
		if row.Mutations == 0 || row.Queries == 0 {
			t.Fatalf("mix %s: degenerate run %+v", row.Mix, row)
		}
		if row.P50 <= 0 || row.P50 > row.P99 || row.P99 > row.P999 || row.P999 > row.Max {
			t.Fatalf("mix %s: read latency p50 %s p99 %s p999 %s max %s, want 0 < p50 <= p99 <= p999 <= max",
				row.Mix, row.P50, row.P99, row.P999, row.Max)
		}
	}
}

// TestRunStreamChaos replays the update stream through the
// deterministic lossy transport for the three CI seeds: exactly-once
// application must land every seed on the clean replay's bytes, with
// faults actually injected and concurrent readers never observing an
// epoch regression.
func TestRunStreamChaos(t *testing.T) {
	noGoroutineLeak(t)
	rep, err := RunStreamChaos(StreamConfig{
		Batches:   32,
		BatchSize: 8,
	}, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !rep.Ok() {
		t.Fatalf("stream chaos failed:\n%s", rep)
	}
	for _, row := range rep.Rows {
		if row.Delivery.Delivered != 32 || row.FinalEpoch != 32 {
			t.Fatalf("seed %d: delivered %d, final epoch %d, want 32/32",
				row.Seed, row.Delivery.Delivered, row.FinalEpoch)
		}
		if row.Mutations != 0 {
			t.Fatalf("seed %d: the racing reader submitted %d batches, want reads only", row.Seed, row.Mutations)
		}
	}
}

// TestStreamLoadSmoke is the streaming load gate: 200 users at a
// 90/10 read/write mix (race detector on in CI). No query may observe
// a torn epoch, and the final state must MATCH the clean replay.
func TestStreamLoadSmoke(t *testing.T) {
	noGoroutineLeak(t)
	rep, err := RunStream(StreamConfig{
		Mixes:      []StreamMix{{90, 10}},
		Users:      200,
		OpsPerUser: 16,
		Batches:    48,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	row := rep.Rows[0]
	if row.TornEpochs != 0 {
		t.Fatalf("%d queries observed a torn epoch", row.TornEpochs)
	}
	if !row.Match {
		t.Fatal("final state diverged from clean replay")
	}
	if row.Errors != 0 {
		t.Fatalf("%d errors under streaming load", row.Errors)
	}
	if row.FinalEpoch != 48 {
		t.Fatalf("final epoch %d, want 48", row.FinalEpoch)
	}
}

// TestStreamReadOnlyLoad is the serving load test as a stream row:
// 200 users for 2 seconds at 100/0, race detector on in CI. The
// serving gate's invariants are asserted on the warmed steady state:
// sustained QPS and p99 under the default per-query deadline. (A cold
// run's p99 is dominated by warmup batches stacking behind one
// dispatcher and is not what the gate claims; the cold path's deadline
// behaviour is pinned by TestHandlerDeadline.) The update stream is
// drained after the run, so the row still ends on the clean replay.
func TestStreamReadOnlyLoad(t *testing.T) {
	noGoroutineLeak(t)
	s, err := newStreamRun(StreamConfig{Users: 200, Duration: 2 * time.Second, Batches: 32, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := s.server()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	warmAll(t, srv)
	row, err := s.row(srv, StreamMix{Read: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", rowHeader, row)
	if row.Queries == 0 || row.QPS == 0 {
		t.Fatal("load test issued no queries")
	}
	if row.Mutations != 0 {
		t.Fatalf("100/0 mix submitted %d batches", row.Mutations)
	}
	var def Config
	def.fill()
	if row.P99 >= def.QueryTimeout {
		t.Fatalf("p99 %s at or above the %s per-query deadline", row.P99, def.QueryTimeout)
	}
	if !row.ok() || row.FinalEpoch != 32 {
		t.Fatalf("read-only row failed the gate: %+v", row)
	}
}

// TestStreamThinkMixed exercises think time briefly, read-only and
// beside writers, and every answer enters the torn-epoch check. The
// servers' generous QueryTimeout matters here — the first component
// query at each epoch computes the component labels cold, which under
// the race detector can overrun the default per-query deadline.
func TestStreamThinkMixed(t *testing.T) {
	noGoroutineLeak(t)
	rep, err := RunStream(StreamConfig{
		Mixes: []StreamMix{{100, 0}, {80, 20}},
		Users: 8, Duration: 200 * time.Millisecond,
		Think:   200 * time.Microsecond,
		Batches: 32, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	for _, row := range rep.Rows {
		if row.Queries == 0 {
			t.Fatalf("mix %s: no queries issued", row.Mix)
		}
		if !row.ok() {
			t.Fatalf("mix %s: think-time workload failed the gate: %+v", row.Mix, row)
		}
	}
	if rep.Rows[1].Mutations == 0 {
		t.Fatal("80/20 row submitted no batches")
	}
	for name, bad := range map[string]StreamConfig{
		"invalid mix":     {Mixes: []StreamMix{{80, 30}}},
		"unknown dataset": {Dataset: "nope"},
	} {
		if _, err := RunStream(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCompactionDivergenceIsReported: the compaction cross-check cannot
// be switched off, so pin what a failing one does. A real batch
// isolates a vertex (every dataset is one component until then); an
// insert fed to the incremental CC but never submitted to the mutation
// log then re-attaches it in the labels only. Compact must report the
// divergence and leave the serving state unswapped, and reads must keep
// answering at the live epoch on the certified snapshot path.
func TestCompactionDivergenceIsReported(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CompactEvery = -1 })
	g, _ := s.Graph("DotaLeague")
	d := s.datasets["DotaLeague"]

	x := graph.VertexID(1)
	for v := 1; v < g.NumVertices(); v++ {
		if deg := g.OutDegree(graph.VertexID(v)); deg > 0 && deg < g.OutDegree(x) {
			x = graph.VertexID(v)
		}
	}
	var cut []evolve.Op
	for _, nb := range g.Out(x) {
		cut = append(cut, evolve.Delete(x, nb))
	}
	if _, err := s.Mutate("DotaLeague", evolve.Batch{Seq: 1, Ops: cut}); err != nil {
		t.Fatal(err)
	}
	// The deletions left the union-find dirty; a lookup rebuilds it from
	// the snapshot, so the phantom insert below is not wiped by a rebuild.
	comp, err := s.Component(context.Background(), "DotaLeague", x)
	if err != nil || comp.Size != 1 {
		t.Fatalf("vertex %d after losing its edges: %+v, err %v; want a singleton", x, comp, err)
	}
	before, err := s.Stats("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	d.cc.Apply([]evolve.Op{evolve.Insert(0, x)})
	d.mu.Unlock()

	if _, err := s.Compact("DotaLeague"); err == nil || !strings.Contains(err.Error(), "incremental CC diverged") {
		t.Fatalf("Compact over diverged labels returned %v, want the divergence error", err)
	}
	// The failure is counted, with its time; the one rebuild is the
	// lookup's after the deletions.
	reg := s.Config().Obs.R()
	if got := reg.Counter("serve.compact.failures").Get(); got != 1 {
		t.Fatalf("serve.compact.failures = %d, want 1", got)
	}
	if reg.Counter("serve.compact.ns").Get() <= 0 {
		t.Fatal("serve.compact.ns did not count the failed compaction")
	}
	if got := reg.Counter("serve.cc.rebuilds").Get(); got != 1 {
		t.Fatalf("serve.cc.rebuilds = %d, want 1", got)
	}
	after, err := s.Stats("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	if after.Compactions != before.Compactions || after.BaseEpoch != before.BaseEpoch {
		t.Fatalf("failed compaction swapped the serving state: compactions %d -> %d, base epoch %d -> %d",
			before.Compactions, after.Compactions, before.BaseEpoch, after.BaseEpoch)
	}
	ans, err := s.BFS(context.Background(), "DotaLeague", 0, x)
	if err != nil {
		t.Fatalf("BFS after the failed compaction: %v", err)
	}
	if ans.Epoch != 1 || ans.Cached || ans.Reachable {
		t.Fatalf("BFS after the failed compaction: %+v, want an uncached epoch-1 answer with %d unreachable", ans, x)
	}
}
