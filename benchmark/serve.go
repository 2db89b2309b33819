package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Serving workloads: BFS point queries against one resident dataset of
// internal/serve, answered either over loopback HTTP on nproc
// keep-alive connections or by goroutines calling Server.BFS. Phase A
// offers a fixed rate open-loop and yields the latency metrics; phase
// B runs closed-loop and yields capacity. Every answer is checked
// against algo.RefBFS references computed in set-up.

// serveEnv is a started server with the references its answers are
// checked against.
type serveEnv struct {
	def  *workloadDef
	srv  *serve.Server
	name string // dataset name
	g    *graph.Graph
	n    int

	plan       queryPlan
	refLevels  [][]int32 // refLevels[src][v]: hop distance, -1 unreachable; nil for sources outside the plan
	refVisited []int

	mu       sync.Mutex
	failures map[string]int // why queries failed, for the log

	front *loopback // HTTP transport only
}

// forEach runs fn(i) for every i in [0,n) on `workers` goroutines.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// queryTimeout replaces the server's 200 ms per-query deadline. On an
// undisturbed box a closed-loop query of serve-cold-batch waits about
// 65 ms (128 callers, two 64-lane sweeps queued), a third of the
// default; when the shared host takes the processors away for a few
// hundred milliseconds every query in the queue would expire (measured
// under eight competing spinners: 2163 of 5752 queries answered 504).
// That is the host, not the program, and a run must not fail on it: the
// stall shows in the latencies instead. The deadline machinery itself
// (context per query and per sweep) stays on the path.
const queryTimeout = 30 * time.Second

// startServer loads the workload's dataset into a serve.Server with
// the definition's configuration.
func startServer(def *workloadDef, sess *obs.Session) (*serve.Server, *graph.Graph, error) {
	srv, err := serve.New(serve.Config{
		Datasets:        []string{def.Dataset.Name},
		Scale:           def.Dataset.Scale,
		Seed:            datasetSeed,
		QueryTimeout:    queryTimeout,
		ResultCacheSize: def.ResultCacheSize,
		CompactEvery:    def.CompactEvery,
		Obs:             sess,
	})
	if err != nil {
		return nil, nil, err
	}
	g, err := srv.Graph(def.Dataset.Name)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, g, nil
}

// loopback is a server's handler behind a loopback HTTP listener,
// with the keep-alive client connections dialled to it.
type loopback struct {
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	accepts atomic.Int64  // connections the listener ever accepted
	conns   []*httpConn
}

func listen(srv *serve.Server, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{served: make(chan struct{})}
	l.hs = &http.Server{
		Handler: srv.Handler(),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				l.accepts.Add(1)
			}
		},
	}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	for c := 0; c < conns; c++ {
		hc, err := dialHTTP(ln.Addr().String())
		if err != nil {
			l.close()
			return nil, err
		}
		l.conns = append(l.conns, hc)
	}
	return l, nil
}

// close hangs up the clients, stops the listener and waits for it.
func (l *loopback) close() {
	for _, hc := range l.conns {
		_ = hc.Close()
	}
	_ = l.hs.Close()
	<-l.served
}

// checkConns asserts the load came over no more connections than the
// workload is allowed.
func (l *loopback) checkConns(limit int) error {
	if n := l.accepts.Load(); n > int64(limit) {
		return fmt.Errorf("listener accepted %d connections, workload may use %d", n, limit)
	}
	return nil
}

func setupServe(def *workloadDef, seed int64, sess *obs.Session) (*serveEnv, error) {
	srv, g, err := startServer(def, sess)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{def: def, srv: srv, name: def.Dataset.Name, g: g, n: g.NumVertices(), failures: make(map[string]int)}
	e.plan = newQueryPlan(def, e.n, seed)
	sources := e.plan.sources()
	e.refLevels = make([][]int32, e.n)
	e.refVisited = make([]int, e.n)
	forEach(len(sources), runtime.GOMAXPROCS(0), func(i int) {
		r := algo.RefBFS(g, graph.VertexID(sources[i]))
		e.refLevels[sources[i]], e.refVisited[sources[i]] = r.Levels, r.Visited
	})
	if def.Warm {
		// Many callers at once, so the warm-up rides full 64-lane sweeps.
		var bad atomic.Int64
		forEach(len(sources), algo.MaxBFSLanes, func(i int) {
			if _, err := srv.BFS(context.Background(), e.name, graph.VertexID(sources[i]), 0); err != nil {
				bad.Add(1)
			}
		})
		if bad.Load() > 0 {
			srv.Close()
			return nil, fmt.Errorf("cache warm-up: %d of %d queries failed", bad.Load(), len(sources))
		}
	}
	if def.Transport == "http" {
		e.front, err = listen(srv, procs())
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	if e.front != nil {
		e.front.close()
	}
	e.srv.Close()
}

// queryPlan is the seeded sequence of (source, target) pairs; request
// i uses entry i mod len.
type queryPlan struct {
	src, target []int32
}

func newQueryPlan(def *workloadDef, n int, seed int64) queryPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b97f4a7c))
	set := rng.Perm(n) // the working set: a seeded sample of the vertices
	if def.WorkingSet > 0 && def.WorkingSet < n {
		set = set[:def.WorkingSet]
	}
	size := ((1<<16)/len(set) + 1) * len(set) // a whole number of permutation cycles
	p := queryPlan{src: make([]int32, size), target: make([]int32, size)}
	for i := range p.src {
		if def.Sources == "permutation" {
			p.src[i] = int32(set[i%len(set)])
		} else {
			p.src[i] = int32(set[rng.Intn(len(set))])
		}
		p.target[i] = int32(rng.Intn(n))
	}
	return p
}

// sources lists the distinct sources of the plan.
func (p queryPlan) sources() []int32 {
	s := slices.Clone(p.src)
	slices.Sort(s)
	return slices.Compact(s)
}

func (p queryPlan) at(i int) (src, target int32) {
	i %= len(p.src)
	return p.src[i], p.target[i]
}

// right checks one answer against the references.
func (e *serveEnv) right(a *serve.BFSAnswer, src, target int32) bool {
	want := e.refLevels[src][target]
	return a.Src == int64(src) && a.Target == int64(target) &&
		a.Dist == want && a.Reachable == (want >= 0) && a.Visited == e.refVisited[src]
}

// appendBFSBody appends the /query/bfs request body.
func appendBFSBody(b []byte, dataset string, src, target int32) []byte {
	b = append(b, `{"dataset":"`...)
	b = append(b, dataset...)
	b = append(b, `","src":`...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	return append(b, '}')
}

// query sends request i of the plan over the workload's transport
// (conn selects the HTTP connection; ignored in-process) and reports
// whether the answer was right.
func (e *serveEnv) query(conn, i int, body *[]byte) bool {
	src, target := e.plan.at(i)
	a := new(serve.BFSAnswer)
	if e.def.Transport == "http" {
		*body = appendBFSBody((*body)[:0], e.name, src, target)
		status, resp, err := e.front.conns[conn].do("POST", "/query/bfs", *body)
		switch {
		case err != nil:
			return e.failed(err.Error())
		case status != http.StatusOK:
			return e.failed(fmt.Sprintf("HTTP %d: %s", status, resp))
		case json.Unmarshal(resp, a) != nil:
			return e.failed("undecodable answer")
		}
	} else {
		var err error
		if a, err = e.srv.BFS(context.Background(), e.name, graph.VertexID(src), graph.VertexID(target)); err != nil {
			return e.failed(err.Error())
		}
	}
	if !e.right(a, src, target) {
		return e.failed("wrong answer")
	}
	return true
}

// failed notes why a query failed and returns false.
func (e *serveEnv) failed(why string) bool {
	e.mu.Lock()
	e.failures[why]++
	e.mu.Unlock()
	return false
}

func (e *serveEnv) reportFailures(o runOpts) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for why, n := range e.failures {
		fmt.Fprintf(o.log, "FAILED %d queries: %s\n", n, why)
	}
}

// servePhases is one open-loop phase followed by one closed-loop
// phase.
type servePhases struct {
	open    samples
	gen     genStats
	closed  samples
	qps     float64 // phase B: completed queries per second over the best windows
	clients int
}

// Track numbering of the serving spans: one track per connection or
// closed-loop caller, then one per spawned open-loop request; the
// server's own batch sweeps get their own.
const batcherTrack = int32(1 << 30)

// runPhases runs phase A for half of dur, then phase B for the rest,
// calling between (when non-nil) after A has drained and before B
// starts. Phase B needs its half: after the low duty of phase A the
// shared host runs a busy thread 1.4–1.7 times slower for the first
// one to four seconds (measured with a fixed single-thread loop, idle
// box), so a phase B of four seconds was at times swallowed whole
// (capacity of serve-cold-batch read 1 300 or 2 050 qps, spread over
// ten runs 21 %). Of eight seconds, the twentieth of the windows the
// rate estimator needs runs at full speed.
func (e *serveEnv) runPhases(dur time.Duration, rec *recorder, between func()) (servePhases, error) {
	var ph servePhases
	openDur := dur / 2
	due := fixedSchedule(e.def.OpenQPS, openDur)
	offset := len(due) // phase B continues the plan where phase A stopped

	if e.def.Transport == "http" {
		conns := len(e.front.conns)
		bodies := make([][]byte, conns)
		roots := make([]int32, conns)
		for c := range roots {
			roots[c] = rec.begin("client.conn", noSpan, int32(c), -1)
		}
		per, _, err := runOpenLoop(dealSchedule(due, conns), nil, func(c, k int) bool {
			i := k*conns + c
			sp := rec.begin("http.roundtrip", roots[c], int32(c), int64(i))
			ok := e.query(c, i, &bodies[c])
			rec.end(sp)
			return ok
		})
		if err != nil {
			return ph, err
		}
		ph.open = mergeByDue(per)
		ph.gen = lateness(ph.open, conns)
		if between != nil {
			between()
		}

		ph.clients = conns
		perB, _ := runClosedLoop(dur-openDur, conns, true, func(c, k int) (bool, bool) {
			i := offset + k*conns + c
			sp := rec.begin("http.roundtrip", roots[c], int32(c), int64(i))
			ok := e.query(c, i, &bodies[c])
			rec.end(sp)
			return ok, false
		})
		for c := range roots {
			rec.end(roots[c])
		}
		ph.closed = concat(perB)
		ph.qps = bestWindowsRate(windowRates(ph.closed.at, rateWindow, dur-openDur))
		return ph, nil
	}

	var inflight int
	var err error
	ph.open, inflight, _, err = runOpenLoopSpawn(due, func(k int) bool {
		sp := rec.begin("serve.bfs", noSpan, int32(e.def.ClosedClients+k), int64(k))
		ok := e.query(0, k, nil)
		rec.end(sp)
		return ok
	})
	if err != nil {
		return ph, err
	}
	ph.gen = lateness(ph.open, inflight)
	if between != nil {
		between()
	}

	ph.clients = e.def.ClosedClients
	perB, _ := runClosedLoop(dur-openDur, ph.clients, false, func(c, k int) (bool, bool) {
		i := offset + k*ph.clients + c
		sp := rec.begin("serve.bfs", noSpan, int32(c), int64(i))
		ok := e.query(0, i, nil)
		rec.end(sp)
		return ok, false
	})
	ph.closed = concat(perB)
	ph.qps = bestWindowsRate(windowRates(ph.closed.at, rateWindow, dur-openDur))
	return ph, nil
}

func (ph servePhases) attempted() int { return len(ph.open.lat) + len(ph.closed.lat) }
func (ph servePhases) failed() int    { return ph.open.failed() + ph.closed.failed() }

// latencyMetrics fills the open-loop latency metrics and prints the
// sample counts behind them.
func latencyMetrics(o runOpts, m measured, what string, open samples, gen genStats) {
	lat := durationsMs(open.lat)
	m["lat_p50_ms"] = betterQuartileLatency(lat)
	p99, windows := windowedP99(lat, p99Window)
	m["lat_p99_ms"] = p99
	fmt.Fprintf(o.log, "%s: open loop sent %d: p50 %.4f ms (better quartile of %d-sample windows; %.4f ms over all), windowed p99 %.4f ms over %d windows of %d; generator late p99 %.1f us, late share %.4f, max in flight %d\n",
		what, gen.sent, m["lat_p50_ms"], latencyWindow, percentile(lat, 50), p99, windows, p99Window, gen.lateP99us, gen.lateShare, gen.inflightMax)
}

// checkGenerator reports a run whose open-loop generator ran late as
// invalid, not slow: its latencies describe the generator. Latency
// runs from the due instant, so a late generator can only make the
// numbers worse, never better; the run still counts.
func checkGenerator(o runOpts, gen genStats) {
	if gen.lateShare > maxLateShare {
		fmt.Fprintf(o.log, "INVALID: %.1f%% of open-loop requests were sent late (limit %.0f%%); lat_* describe the generator\n", 100*gen.lateShare, 100*maxLateShare)
	}
}

func runServe(def *workloadDef, o runOpts) (measured, int, int, error) {
	runtime.GOMAXPROCS(procs())
	m := make(measured)
	dur := o.duration()

	if !o.trace {
		env, setupS, err := medianSetup(o.setupOnce(),
			func() (*serveEnv, error) { return setupServe(def, o.seed, nil) },
			(*serveEnv).close)
		if err != nil {
			return nil, 0, 0, err
		}
		defer env.close()
		ph, err := env.runPhases(dur, nil, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		m["setup_s"] = setupS
		m["throughput"] = ph.qps
		latencyMetrics(o, m, def.Name, ph.open, ph.gen)
		fmt.Fprintf(o.log, "%s: closed loop %d clients, %d queries, %.1f/s (95th percentile of %v windows)\n", def.Name, ph.clients, len(ph.closed.lat), ph.qps, rateWindow)
		failed := ph.failed()
		env.reportFailures(o)
		if err := env.checkConns(); err != nil {
			return nil, 0, 0, err
		}
		checkGenerator(o, ph.gen)
		return m, ph.attempted(), failed, nil
	}

	// Traced run: the same phases at half length, first on a server
	// without an obs session and with the recorder off (the baseline),
	// then with both on.
	plain, err := setupServe(def, o.seed, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	base, err := plain.runPhases(dur/2, nil, nil)
	plain.reportFailures(o)
	plain.close()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC() // the traced half starts from the heap the baseline started from

	sessEpoch := time.Now()
	sess := obs.NewSession(obs.Options{NoSampler: true})
	env, err := setupServe(def, o.seed, sess)
	if err != nil {
		return nil, 0, 0, err
	}
	defer env.close()
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	phaseStart := time.Now()
	c0 := sess.Metrics.Snapshot().Counters
	var cA map[string]int64 // counters between the two phases
	traced, err := env.runPhases(dur/2, rec, func() { cA = sess.Metrics.Snapshot().Counters })
	if err != nil {
		return nil, 0, 0, err
	}
	c1 := sess.Metrics.Snapshot().Counters
	runtime.ReadMemStats(&after)
	rec.importObs(sess.Tracer, sessEpoch, noSpan, batcherTrack, -1, phaseStart,
		func(string, string) string { return "serve.batch.sweep" })

	delta := func(from, to map[string]int64, name string) float64 { return float64(to[name] - from[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["serve.queries"] = delta(c0, c1, "serve.queries")
	m["serve.cache.hit_ratio"] = ratio(delta(c0, c1, "serve.cache.hits"), m["serve.queries"])
	m["serve.batches"] = delta(c0, c1, "serve.batches")
	m["serve.lanes_per_batch"] = ratio(delta(c0, c1, "serve.lanes"), m["serve.batches"])
	m["serve.lanes_per_batch.open"] = ratio(delta(c0, cA, "serve.lanes"), delta(c0, cA, "serve.batches"))
	m["serve.lanes_per_batch.closed"] = ratio(delta(cA, c1, "serve.lanes"), delta(cA, c1, "serve.batches"))
	m["serve.overloads"] = delta(c0, c1, "serve.overloads")
	m["serve.deadlines"] = delta(c0, c1, "serve.deadlines")
	if d, n := rec.total("serve.batch.sweep"); n > 0 {
		m["serve.batch.sweep_ms"] = ms(d) / float64(n)
	}
	m["gen.sent"] = float64(traced.gen.sent)
	m["gen.late_p99_us"] = traced.gen.lateP99us
	m["gen.late_share"] = traced.gen.lateShare
	m["gen.inflight_max"] = float64(traced.gen.inflightMax)
	memDelta(m, &before, &after)
	m["trace.overhead_share"] = ratio(base.qps-traced.qps, base.qps)

	if def.Transport == "http" {
		if err := env.probeHTTP(m); err != nil {
			return nil, 0, 0, err
		}
	} else {
		if err := env.probeKernels(m); err != nil {
			return nil, 0, 0, err
		}
		// What a query waits for besides its own sweep and certificate:
		// the batch window, the queue, and the lanes ahead of it.
		p50 := percentile(durationsMs(traced.open.lat), 50)
		m["serve.queue_wait_ms"] = max(0, p50-m["serve.batch.sweep_ms"]-m["algo.validate_bfs.us"]/1e3)
	}

	latencyMetrics(o, m, def.Name+" traced", traced.open, traced.gen)
	env.reportFailures(o)
	if err := env.checkConns(); err != nil {
		return nil, 0, 0, err
	}
	if err := rec.report(o, m, fmt.Sprintf("%s traced: closed loop %.1f/s against %.1f untraced", def.Name, traced.qps, base.qps)); err != nil {
		return nil, 0, 0, err
	}
	return m, base.attempted() + traced.attempted(), base.failed() + traced.failed(), nil
}

// checkConns asserts the HTTP load came over at most nproc
// connections.
func (e *serveEnv) checkConns() error {
	if e.front == nil {
		return nil
	}
	return e.front.checkConns(procs())
}

// probeHTTP times the hot path's two halves directly: a round trip on
// one connection against an in-process call, same warm source.
func (e *serveEnv) probeHTTP(m measured) error {
	const trips, calls = 4000, 200000
	src, target := e.plan.at(0) // a warm source
	body := appendBFSBody(nil, e.name, src, target)
	rt := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if status, _, err := e.front.conns[0].do("POST", "/query/bfs", body); err != nil || status != http.StatusOK {
			return fmt.Errorf("round-trip probe: status %d: %v", status, err)
		}
		rt = append(rt, us(time.Since(t0)))
	}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := e.srv.BFS(context.Background(), e.name, graph.VertexID(src), graph.VertexID(target)); err != nil {
			return err
		}
	}
	m["serve.http.roundtrip_us"] = median(rt)
	m["serve.inproc.hit_us"] = us(time.Since(t0)) / calls
	m["serve.http.overhead_us"] = m["serve.http.roundtrip_us"] - m["serve.inproc.hit_us"]
	return nil
}

// probeKernels times the kernels under the cold path directly on the
// resident graph, with the run's own sources: solo and batched BFS
// and the per-lane certificate.
func (e *serveEnv) probeKernels(m measured) error {
	srcs := make([]graph.VertexID, algo.MaxBFSLanes)
	for i := range srcs {
		s, _ := e.plan.at(i)
		srcs[i] = graph.VertexID(s)
	}
	var solo, cert []float64
	for _, s := range srcs {
		t0 := time.Now()
		tree := algo.BFSDirOpt(e.g, s, algo.GapOptions{})
		solo = append(solo, us(time.Since(t0)))
		t0 = time.Now()
		if err := algo.ValidateBFS(e.g, s, &tree.BFSResult); err != nil {
			return err
		}
		cert = append(cert, us(time.Since(t0)))
	}
	m["algo.bfs_diropt.us"] = median(solo)
	m["algo.validate_bfs.us"] = median(cert)
	for _, lanes := range []int{1, 8, 64} {
		var ts []float64
		for rep := 0; rep < 64/lanes+7; rep++ {
			lo := (rep * lanes) % (len(srcs) - lanes + 1)
			t0 := time.Now()
			if _, err := algo.BFSMultiSource(context.Background(), e.g, srcs[lo:lo+lanes], algo.GapOptions{}); err != nil {
				return err
			}
			ts = append(ts, us(time.Since(t0)))
		}
		m[fmt.Sprintf("algo.bfs_multisource.l%d.us", lanes)] = median(ts)
	}
	return nil
}
