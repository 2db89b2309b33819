package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Datasets: []string{"DotaLeague"},
		Obs:      obs.NewSession(obs.Options{NoSampler: true}),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServeBFSMatchesSolo pins served answers to a lone sequential
// BFS: distance and reachability for a spread of (src, target) pairs
// must equal RefBFSTree on the same graph.
func TestServeBFSMatchesSolo(t *testing.T) {
	s := newTestServer(t, nil)
	g, err := s.Graph("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		src := graph.VertexID((i * 997) % n)
		target := graph.VertexID((i*131 + 7) % n)
		ans, err := s.BFS(ctx, "DotaLeague", src, target)
		if err != nil {
			t.Fatalf("BFS(%d,%d): %v", src, target, err)
		}
		want := algo.RefBFSTree(g, src)
		if ans.Dist != want.Levels[target] {
			t.Fatalf("BFS(%d,%d): dist %d, reference says %d", src, target, ans.Dist, want.Levels[target])
		}
		if ans.Reachable != (want.Levels[target] >= 0) {
			t.Fatalf("BFS(%d,%d): reachable %v contradicts dist", src, target, ans.Reachable)
		}
		if ans.Visited != want.Visited {
			t.Fatalf("BFS(%d,%d): visited %d, reference says %d", src, target, ans.Visited, want.Visited)
		}
	}
}

// TestBatchCoalesce: concurrent distinct-source queries must coalesce
// into far fewer sweeps than queries, and every answer stays correct.
func TestBatchCoalesce(t *testing.T) {
	noGoroutineLeak(t)
	sess := obs.NewSession(obs.Options{NoSampler: true})
	s := newTestServer(t, func(c *Config) {
		c.Obs = sess
		// Not a deadline test: under the race detector a full batch's
		// certificates run ~10x slower, so give lanes ample time.
		c.QueryTimeout = 10 * time.Second
	})
	g, _ := s.Graph("DotaLeague")
	n := g.NumVertices()

	const q = 48
	var wg sync.WaitGroup
	errs := make([]error, q)
	answers := make([]*BFSAnswer, q)
	for i := 0; i < q; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := graph.VertexID((i * (n/q + 1)) % n)
			answers[i], errs[i] = s.BFS(context.Background(), "DotaLeague", src, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	batches := sess.R().Counter("serve.batches").Get()
	lanes := sess.R().Counter("serve.lanes").Get()
	if batches == 0 || lanes == 0 {
		t.Fatal("no batches recorded")
	}
	if batches >= q/2 {
		t.Fatalf("%d concurrent queries ran %d sweeps — not coalescing", q, batches)
	}
	for i, ans := range answers {
		src := graph.VertexID((i * (n/q + 1)) % n)
		want := algo.RefBFSTree(g, src)
		if ans.Dist != want.Levels[0] {
			t.Fatalf("query %d: dist %d, reference says %d", i, ans.Dist, want.Levels[0])
		}
	}
}

// TestResultCache: a repeated source is served from the cache, and
// stats report the resident entries.
func TestResultCache(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	first, err := s.BFS(ctx, "DotaLeague", 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query claims a cache hit")
	}
	second, err := s.BFS(ctx, "DotaLeague", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated source missed the result cache")
	}
	st, err := s.Stats("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEntries == 0 {
		t.Fatal("stats report an empty result cache after a query")
	}
}

// TestKHopComponentSSSP checks the component lookup against the
// labels ConnectedComponents computes directly.
func TestKHopComponentSSSP(t *testing.T) {
	s := newTestServer(t, nil)
	g, _ := s.Graph("DotaLeague")
	ctx := context.Background()

	comp, err := s.Component(ctx, "DotaLeague", 7)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.ConnectedComponents()
	if comp.Component != int64(labels[7]) {
		t.Fatalf("component(7) = %d, want %d", comp.Component, labels[7])
	}
	if comp.Size <= 0 {
		t.Fatalf("component size %d", comp.Size)
	}
}

// postJSON drives the HTTP handler directly.
func postJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerTable is the HTTP error-contract table: malformed JSON,
// missing/unknown fields, unknown dataset, out-of-range vertex, plus
// the happy paths for every endpoint.
func TestHandlerTable(t *testing.T) {
	noGoroutineLeak(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	g, _ := s.Graph("DotaLeague")
	n := int64(g.NumVertices())

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"bfs ok", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":2}`, 200},
		{"malformed json", "/query/bfs", `{"dataset":`, 400},
		{"unknown field", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":2,"bogus":true}`, 400},
		{"wrong type", "/query/bfs", `{"dataset":"DotaLeague","src":"one","target":2}`, 400},
		{"missing src", "/query/bfs", `{"dataset":"DotaLeague","target":2}`, 400},
		{"missing target", "/query/bfs", `{"dataset":"DotaLeague","src":1}`, 400},
		{"unknown dataset", "/query/bfs", `{"dataset":"nope","src":1,"target":2}`, 404},
		{"vertex too big", "/query/bfs", `{"dataset":"DotaLeague","src":` + itoa64(n) + `,"target":2}`, 404},
		{"negative vertex", "/query/bfs", `{"dataset":"DotaLeague","src":-1,"target":2}`, 404},
		// 2^32+1 and 1-2^32 both wrap onto vertex 1 when narrowed to int32.
		{"src wraps", "/query/bfs", `{"dataset":"DotaLeague","src":4294967297,"target":2}`, 404},
		{"src wraps negative", "/query/bfs", `{"dataset":"DotaLeague","src":-4294967295,"target":2}`, 404},
		{"target wraps", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":4294967297}`, 404},
		{"target wraps negative", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":-4294967295}`, 404},
		{"vertex wraps", "/query/component", `{"dataset":"DotaLeague","vertex":4294967297}`, 404},
		{"vertex wraps negative", "/query/component", `{"dataset":"DotaLeague","vertex":-4294967295}`, 404},
		{"component ok", "/query/component", `{"dataset":"DotaLeague","vertex":4}`, 200},
		{"component missing vertex", "/query/component", `{"dataset":"DotaLeague"}`, 400},
		{"component bad dataset", "/query/component", `{"dataset":"x","vertex":4}`, 404},
		{"target too big", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":` + itoa64(n+5) + `}`, 404},
		// No endpoint reads a hop count, so the decoder rejects it.
		{"k on bfs", "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":2,"k":2}`, 400},
		{"oversized body", "/query/bfs", `{"dataset":"` + strings.Repeat("x", maxBodyBytes) + `","src":1,"target":2}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(h, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d (body %s)",
					tc.path, tc.body, rec.Code, tc.status, rec.Body.String())
			}
			if tc.status != 200 {
				var e map[string]string
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
					t.Fatalf("error response has no error field: %s", rec.Body.String())
				}
				if strings.Contains(tc.name, "wraps") && !strings.Contains(e["error"], ErrBadVertex.Error()) {
					t.Fatalf("out-of-int32 vertex answered %q, want %q", e["error"], ErrBadVertex)
				}
			}
		})
	}

	t.Run("stats ok", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/stats?dataset=DotaLeague", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("stats: %d (%s)", rec.Code, rec.Body.String())
		}
		var st StatsAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Vertices != int(n) {
			t.Fatalf("stats vertices %d, want %d", st.Vertices, n)
		}
	})
	t.Run("stats unknown dataset", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/stats?dataset=zzz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 404 {
			t.Fatalf("stats zzz: %d", rec.Code)
		}
	})
	t.Run("datasets healthz metricz", func(t *testing.T) {
		for _, path := range []string{"/datasets", "/healthz", "/metricz"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("%s: %d", path, rec.Code)
			}
			if path != "/metricz" {
				continue
			}
			for _, name := range []string{"serve.handoff.ns", "serve.certify.ns", "serve.certify.lanes", "serve.certify.failures",
				"serve.compact.failures", "serve.compact.ns", "serve.cc.rebuilds"} {
				if !strings.Contains(rec.Body.String(), name) {
					t.Fatalf("/metricz does not list %s", name)
				}
			}
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/query/bfs", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /query/bfs: %d, want 405", rec.Code)
		}
	})
}

// TestHandlerOverload: with the dispatcher stopped and the execution
// queue pre-filled, admission control must answer 429 with the typed
// error, deterministically.
func TestHandlerOverload(t *testing.T) {
	noGoroutineLeak(t)
	s := newTestServer(t, func(c *Config) { c.QueueDepth = 2 })
	bt := s.datasets["DotaLeague"].st.Load().batcher
	bt.stop() // nothing drains the queue from here on
	for i := 0; i < 2; i++ {
		bt.queue <- bfsWaiter{src: 0, done: make(chan bfsOutcome, 1)}
	}
	if _, _, err := bt.tree(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	rec := postJSON(s.Handler(), "/query/bfs", `{"dataset":"DotaLeague","src":1,"target":2}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded server answered %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
}

// TestStaleBatcherFallback: a retired batcher (what a query sees when
// compaction swaps the serving state mid-flight) reports the typed
// stale error, and the serve layer transparently re-answers on the
// live snapshot — the client still gets a correct 200.
func TestStaleBatcherFallback(t *testing.T) {
	noGoroutineLeak(t)
	s := newTestServer(t, nil)
	bt := s.datasets["DotaLeague"].st.Load().batcher
	bt.stop()
	if _, _, err := bt.tree(context.Background(), 1); !errors.Is(err, errStaleBatcher) {
		t.Fatalf("retired batcher returned %v, want errStaleBatcher", err)
	}
	rec := postJSON(s.Handler(), "/query/bfs", `{"dataset":"DotaLeague","src":2,"target":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query against retired batcher answered %d, want 200 via snapshot fallback (%s)",
			rec.Code, rec.Body.String())
	}
	var ans BFSAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	g, _ := s.Graph("DotaLeague")
	want := algo.RefBFSTree(g, 2)
	if ans.Dist != want.Levels[3] || ans.Cached {
		t.Fatalf("fallback answer %+v disagrees with the reference (want dist %d, uncached)",
			ans, want.Levels[3])
	}
}

// TestHandlerDeadline: an already-expired per-query deadline must come
// back 504 with the kernel's typed error — whether the waiter times
// out or the sweep itself is cancelled mid-flight.
func TestHandlerDeadline(t *testing.T) {
	noGoroutineLeak(t)
	s := newTestServer(t, func(c *Config) { c.QueryTimeout = time.Nanosecond })
	_, err := s.BFS(context.Background(), "DotaLeague", 1, 2)
	if !errors.Is(err, algo.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want ErrDeadlineExceeded", err)
	}
	rec := postJSON(s.Handler(), "/query/bfs", `{"dataset":"DotaLeague","src":2,"target":3}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline answered %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
}

// seamBatcher is a batcher over the test server's graph whose sweep
// and certificate seams and queue the caller may set up before
// starting its two stages.
func seamBatcher(t *testing.T, sess *obs.Session) (*batcher, *graph.Graph) {
	t.Helper()
	s := newTestServer(t, nil)
	g, err := s.Graph("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Obs: sess, QueryTimeout: 30 * time.Second}
	cfg.fill()
	return buildBatcher(g, cfg), g
}

// damageLane puts one vertex at level 2 a level too deep, so an arc
// now skips a level and the lane's certificate must fail.
func damageLane(t *algo.BFSTree) {
	for v, d := range t.Levels {
		if d == 2 {
			t.Levels[v] = 3
			return
		}
	}
}

// TestCertificateFailureIsolated damages one lane of a full batch
// between the sweep and the certificate. That lane's waiters — both of
// them — must get the certificate error and the lane must stay out of
// the cache; the other 63 lanes answer and are cached; and asking for
// the failed source again sweeps it afresh and succeeds.
func TestCertificateFailureIsolated(t *testing.T) {
	noGoroutineLeak(t)
	sess := obs.NewSession(obs.Options{NoSampler: true})
	b, g := seamBatcher(t, sess)
	n := g.NumVertices()
	srcs := make([]graph.VertexID, algo.MaxBFSLanes)
	for l := range srcs {
		srcs[l] = graph.VertexID(l * (n / len(srcs)))
	}
	bad := srcs[17]

	damaged := false
	b.sweep = func(ctx context.Context, g *graph.Graph, batch []graph.VertexID, opt algo.GapOptions) ([]*algo.BFSTree, error) {
		trees, err := algo.BFSMultiSource(ctx, g, batch, opt)
		for l, src := range batch {
			if err != nil || damaged || src != bad {
				continue
			}
			damaged = true
			damageLane(trees[l])
		}
		return trees, err
	}

	// The batch closes at 64 distinct sources, so queue the duplicate
	// waiter of the bad source ahead of the last distinct one, and
	// everything ahead of the dispatcher.
	order := append([]graph.VertexID{bad}, srcs...)
	waiters := make([]bfsWaiter, len(order))
	for i, src := range order {
		waiters[i] = bfsWaiter{src: src, done: make(chan bfsOutcome, 1)}
		b.queue <- waiters[i]
	}
	b.start()
	defer b.stop()

	for _, w := range waiters {
		out := <-w.done
		if w.src == bad {
			if out.err == nil || !strings.Contains(out.err.Error(), "certificate failed") {
				t.Fatalf("damaged lane answered with error %v, want the certificate error", out.err)
			}
			continue
		}
		if out.err != nil {
			t.Fatalf("sound lane %d failed beside the damaged one: %v", w.src, out.err)
		}
		if b.lookup(w.src) != out.tree {
			t.Fatalf("sound lane %d answered but is not the cached tree", w.src)
		}
	}
	if b.lookup(bad) != nil {
		t.Fatal("a lane with a failed certificate entered the result cache")
	}
	reg := sess.R()
	if lanes, failures := reg.Counter("serve.certify.lanes").Get(), reg.Counter("serve.certify.failures").Get(); lanes != algo.MaxBFSLanes || failures != 1 {
		t.Fatalf("serve.certify.lanes = %d, failures = %d, want 64 and 1", lanes, failures)
	}
	if reg.Counter("serve.certify.ns").Get() <= 0 {
		t.Fatal("serve.certify.ns not counted")
	}

	tree, cached, err := b.tree(context.Background(), bad)
	if err != nil || cached {
		t.Fatalf("retry of the failed source: cached=%v err=%v, want a fresh certified sweep", cached, err)
	}
	if want := algo.RefBFSTree(g, bad); tree.Visited != want.Visited || tree.Levels[0] != want.Levels[0] {
		t.Fatal("retry answered a tree that disagrees with the reference")
	}
	if b.lookup(bad) != tree {
		t.Fatal("retried source not cached")
	}
	if got := reg.Counter("serve.deadlines").Get(); got != 0 {
		t.Fatalf("serve.deadlines = %d after certificate failures, want 0", got)
	}
}

// TestSweepErrorDeadlineCount: a failed sweep fails every waiter of the
// batch with the sweep's error, and serve.deadlines counts waiters —
// not lanes — and only when the error is the deadline.
func TestSweepErrorDeadlineCount(t *testing.T) {
	noGoroutineLeak(t)
	for _, tc := range []struct {
		err  error
		want int64
	}{
		{errors.New("sweep broke"), 0},
		{fmt.Errorf("%w at level 2", algo.ErrDeadlineExceeded), 3},
	} {
		sess := obs.NewSession(obs.Options{NoSampler: true})
		b, _ := seamBatcher(t, sess)
		b.sweep = func(context.Context, *graph.Graph, []graph.VertexID, algo.GapOptions) ([]*algo.BFSTree, error) {
			return nil, tc.err
		}
		b.start()
		var wg sync.WaitGroup
		for _, src := range []graph.VertexID{4, 4, 9} { // two lanes, three waiters
			wg.Add(1)
			go func(src graph.VertexID) {
				defer wg.Done()
				if _, _, err := b.tree(context.Background(), src); !errors.Is(err, tc.err) {
					t.Errorf("waiter on %d got %v, want %v", src, err, tc.err)
				}
			}(src)
		}
		wg.Wait()
		b.stop()
		if got := sess.R().Counter("serve.deadlines").Get(); got != tc.want {
			t.Fatalf("sweep error %q: serve.deadlines = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// enqueue puts one waiter per source on the batcher's queue, behind the
// result cache's back.
func enqueue(b *batcher, srcs ...graph.VertexID) []bfsWaiter {
	waiters := make([]bfsWaiter, len(srcs))
	for i, src := range srcs {
		waiters[i] = bfsWaiter{src: src, done: make(chan bfsOutcome, 1)}
		b.queue <- waiters[i]
	}
	return waiters
}

// requireDispatch checks the batches and the lanes swept so far.
func requireDispatch(t *testing.T, sess *obs.Session, batches, lanes int64) {
	t.Helper()
	reg := sess.R()
	if gotB, gotL := reg.Counter("serve.batches").Get(), reg.Counter("serve.lanes").Get(); gotB != batches || gotL != lanes {
		t.Fatalf("dispatch: %d batches, %d lanes; want %d batches, %d lanes", gotB, gotL, batches, lanes)
	}
}

// TestDispatchIdleSweepsAtOnce: a lone query on an idle batcher is
// answered by a one-lane batch; nothing holds it open for company.
func TestDispatchIdleSweepsAtOnce(t *testing.T) {
	noGoroutineLeak(t)
	sess := obs.NewSession(obs.Options{NoSampler: true})
	b, _ := seamBatcher(t, sess)
	b.start()
	defer b.stop()

	if _, cached, err := b.tree(context.Background(), 5); err != nil || cached {
		t.Fatalf("lone query: cached=%v err=%v", cached, err)
	}
	requireDispatch(t, sess, 1, 1)
}

// TestDispatchIdleTakesBacklog: what is already queued when an idle
// dispatcher wakes rides its batches, duplicates on a shared lane, and
// a batch takes all it may: 128 distinct queued sources drain as
// exactly two batches of 64 lanes, never a short batch that leaves a
// full queue behind.
func TestDispatchIdleTakesBacklog(t *testing.T) {
	wide := make([]graph.VertexID, 2*algo.MaxBFSLanes)
	for l := range wide {
		wide[l] = graph.VertexID(300 + l)
	}
	for _, tc := range []struct {
		name           string
		srcs           []graph.VertexID
		batches, lanes int64
	}{
		{"duplicates share a lane", []graph.VertexID{3, 9, 3, 14, 21}, 1, 4},
		{"two full batches", wide, 2, 2 * algo.MaxBFSLanes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noGoroutineLeak(t)
			sess := obs.NewSession(obs.Options{NoSampler: true})
			b, _ := seamBatcher(t, sess)
			waiters := enqueue(b, tc.srcs...)
			b.start()
			defer b.stop()

			for _, w := range waiters {
				if out := <-w.done; out.err != nil {
					t.Fatalf("source %d: %v", w.src, out.err)
				}
			}
			requireDispatch(t, sess, tc.batches, tc.lanes)
		})
	}
}

// TestStopDrainsWithoutHolding: stopping a batcher answers everything
// queued through the batches group commit forms — compaction calls
// stop with the writer paused, so no waiter may be stranded — and
// returns only once the certificate stage has certified every lane
// the sweep stage swept.
func TestStopDrainsWithoutHolding(t *testing.T) {
	noGoroutineLeak(t)
	sess := obs.NewSession(obs.Options{NoSampler: true})
	b, _ := seamBatcher(t, sess)
	srcs := make([]graph.VertexID, algo.MaxBFSLanes+6)
	for l := range srcs {
		srcs[l] = graph.VertexID(200 + l)
	}
	// A duplicate in each of the two batches the 70 sources make.
	waiters := enqueue(b, append(append([]graph.VertexID{srcs[0]}, srcs...), srcs[len(srcs)-1])...)
	b.start()
	b.stop()

	for _, w := range waiters {
		select {
		case out := <-w.done:
			if out.err != nil {
				t.Fatalf("source %d: %v", w.src, out.err)
			}
		default:
			t.Fatalf("source %d was queued at stop and never answered", w.src)
		}
	}
	requireDispatch(t, sess, 2, int64(len(srcs)))
	if got := sess.R().Counter("serve.certify.lanes").Get(); got != int64(len(srcs)) {
		t.Fatalf("stop returned with %d of %d swept lanes certified", got, len(srcs))
	}
}

// TestCertificateOverlapsNextSweep holds batch 1's certificate open
// and requires batch 2 to form and sweep meanwhile: the sweep stage
// does not wait for the certificate stage. Released, both batches
// answer, and the lane damaged on its way to batch 1's certificate
// fails alone and stays out of the cache.
func TestCertificateOverlapsNextSweep(t *testing.T) {
	noGoroutineLeak(t)
	sess := obs.NewSession(obs.Options{NoSampler: true})
	b, _ := seamBatcher(t, sess)
	first, second := []graph.VertexID{11, 22, 33}, []graph.VertexID{44, 55}
	bad := first[1]

	// Each counter is touched by one stage's goroutine only.
	sweeps, certs := 0, 0
	secondSwept := make(chan struct{})
	b.sweep = func(ctx context.Context, g *graph.Graph, batch []graph.VertexID, opt algo.GapOptions) ([]*algo.BFSTree, error) {
		sweeps++
		trees, err := algo.BFSMultiSource(ctx, g, batch, opt)
		for l, src := range batch {
			if err == nil && sweeps == 1 && src == bad {
				damageLane(trees[l])
			}
		}
		if sweeps == 2 {
			close(secondSwept)
		}
		return trees, err
	}
	certHeld, release := make(chan struct{}), make(chan struct{})
	validate := b.validate
	b.validate = func(g *graph.Graph, srcs []graph.VertexID, results []*algo.BFSResult) []error {
		if certs++; certs == 1 {
			close(certHeld)
			<-release
		}
		return validate(g, srcs, results)
	}
	releaseOnce := sync.OnceFunc(func() { close(release) })

	waiters := enqueue(b, first...)
	b.start()
	defer b.stop()
	defer releaseOnce() // before stop, or a failed wait below would hang it
	<-certHeld
	waiters = append(waiters, enqueue(b, second...)...)
	select {
	case <-secondSwept:
	case <-time.After(10 * time.Second):
		t.Fatal("batch 2 did not sweep while batch 1's certificate was held")
	}
	releaseOnce()

	for _, w := range waiters {
		out := <-w.done
		if w.src == bad {
			if out.err == nil || !strings.Contains(out.err.Error(), "certificate failed") {
				t.Fatalf("damaged lane answered with error %v, want the certificate error", out.err)
			}
			continue
		}
		if out.err != nil {
			t.Fatalf("source %d: %v", w.src, out.err)
		}
		if b.lookup(w.src) != out.tree {
			t.Fatalf("source %d answered but is not the cached tree", w.src)
		}
	}
	if b.lookup(bad) != nil {
		t.Fatal("a lane with a failed certificate entered the result cache")
	}
	reg := sess.R()
	want := int64(len(first) + len(second))
	if lanes, failures := reg.Counter("serve.certify.lanes").Get(), reg.Counter("serve.certify.failures").Get(); lanes != want || failures != 1 {
		t.Fatalf("serve.certify.lanes = %d, failures = %d, want %d and 1", lanes, failures, want)
	}
}

// warmAll fills the result cache for every vertex (batched, certified)
// so a measured run exercises the steady state, not the cold start.
// The server under warmup needs a generous QueryTimeout: warming rides
// full batches, whose certificates run ~10x slower under -race.
func warmAll(t *testing.T, s *Server) {
	t.Helper()
	g, err := s.Graph("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ctx := context.Background()
	for base := 0; base < n; base += algo.MaxBFSLanes {
		var wg sync.WaitGroup
		for v := base; v < n && v < base+algo.MaxBFSLanes; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				if _, err := s.BFS(ctx, "DotaLeague", graph.VertexID(v), 0); err != nil {
					t.Errorf("warm %d: %v", v, err)
				}
			}(v)
		}
		wg.Wait()
	}
}

func itoa64(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}
