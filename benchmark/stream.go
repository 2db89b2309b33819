package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Streaming workload: one writer connection POSTs seeded edge-mutation
// batches to /mutate while one reader connection issues BFS and
// component queries, both over loopback HTTP against a default server
// (auto-compaction every compact_every applied batches). Phase A is
// open-loop on both connections and yields the read and write
// latencies; in phase B a closed-loop writer applies a fixed number of
// further batches in-process — as fast as the server folds them —
// while the reader keeps its schedule, and yields the sustained
// mutation rate.
//
// Every answer is recorded with the epoch it was served at and checked
// after the run against a clean sequential replay of the same batches;
// the served graph must end byte-identical to the replay's.

const (
	writerConn = 0
	readerConn = 1
)

type streamEnv struct {
	def  *workloadDef
	srv  *serve.Server
	name string
	g0   *graph.Graph // the base graph at epoch 0

	batches []evolve.Batch
	bodies  [][]byte // pre-encoded /mutate bodies of the open-loop phase, bodies[i] is batch seq i+1
	nOpen   int      // batches the open-loop phase sends

	front *loopback // connection writerConn and connection readerConn
}

// openShare is the part of a run's seconds the open-loop phase takes.
// The closed-loop phase is a fixed amount of work — closed_batches
// batches, so every commit and box applies the same mutations to the
// same graph states — sized to take about the remaining eighth of the
// default seconds on the reference box.
func openShare(dur time.Duration) time.Duration { return dur * 7 / 8 }

func setupStream(def *workloadDef, seed int64, dur time.Duration, closed int, sess *obs.Session) (*streamEnv, error) {
	srv, g, err := startServer(def, sess)
	if err != nil {
		return nil, err
	}
	e := &streamEnv{def: def, srv: srv, name: def.Dataset.Name, g0: g}
	e.nOpen = len(fixedSchedule(def.WriteBatchesPerS, openShare(dur)))
	e.batches = datagen.UpdateStream(g, seed, e.nOpen+closed, def.BatchOps, def.DeleteFrac)
	e.bodies = make([][]byte, e.nOpen) // phase B submits in-process
	for i, b := range e.batches[:e.nOpen] {
		e.bodies[i], err = json.Marshal(struct {
			Dataset string      `json:"dataset"`
			Seq     uint64      `json:"seq"`
			Ops     []evolve.Op `json:"ops"`
		}{e.name, b.Seq, b.Ops})
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	e.front, err = listen(srv, 2)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return e, nil
}

func (e *streamEnv) close() {
	if e == nil {
		return
	}
	e.front.close()
	e.srv.Close()
}

// read is one recorded query answer, checked after the run.
type read struct {
	component bool
	epoch     uint64
	v, target int32 // source (or the component query's vertex), BFS target
	dist      int32
	reachable bool
	count     int   // BFS: visited; component: size
	label     int64 // component label
}

// readEvent is one entry of the reader's merged schedule.
type readEvent struct {
	due       time.Duration
	component bool
}

// readerSchedule merges the BFS and component arrival processes; the
// component queries sit half a BFS interval off so the two never tie.
func readerSchedule(def *workloadDef, dur time.Duration) []readEvent {
	var ev []readEvent
	for _, d := range fixedSchedule(def.ReadBFSPerS, dur) {
		ev = append(ev, readEvent{due: d})
	}
	half := time.Duration(float64(time.Second) / def.ReadBFSPerS / 2)
	for _, d := range fixedSchedule(def.ReadCompPerS, dur) {
		ev = append(ev, readEvent{due: d + half, component: true})
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].due < ev[j].due })
	return ev
}

// streamRun is what the two phases measured.
type streamRun struct {
	writes, compacts  []float64 // open-loop /mutate latencies (ms), by compacted flag
	bfs, comp         samples   // open-loop reader samples of phase A
	gen               genStats
	opsPerS           float64 // phase B: mutations applied per second over the best compaction cycles
	applied           int     // batches applied over both phases
	reads             []read
	attempted, failed int
}

// reader drives the reader connection through schedule ev, recording
// answers; it is used by both phases (phase B with its own schedule).
type reader struct {
	e     *streamEnv
	rng   *rand.Rand
	n     int
	body  []byte
	reads []read
	epoch uint64 // last epoch seen: answers must never go back
	rec   *recorder
	root  int32

	sent, failed int
}

func (r *reader) do(component bool, req int64) (ok bool) {
	r.sent++
	defer func() {
		if !ok {
			r.failed++
		}
	}()
	hc := r.e.front.conns[readerConn]
	v := int32(r.rng.Intn(r.n))
	if component {
		r.body = append(r.body[:0], `{"dataset":"`...)
		r.body = append(r.body, r.e.name...)
		r.body = append(r.body, `","vertex":`...)
		r.body = strconv.AppendInt(r.body, int64(v), 10)
		r.body = append(r.body, '}')
		sp := r.rec.begin("http.component", r.root, readerConn, req)
		status, resp, err := hc.do("POST", "/query/component", r.body)
		r.rec.end(sp)
		var a serve.ComponentAnswer
		if err != nil || status != http.StatusOK || json.Unmarshal(resp, &a) != nil || a.Vertex != int64(v) || a.Epoch < r.epoch {
			return false
		}
		r.epoch = a.Epoch
		r.reads = append(r.reads, read{component: true, epoch: a.Epoch, v: v, label: a.Component, count: a.Size})
		return true
	}
	target := int32(r.rng.Intn(r.n))
	r.body = appendBFSBody(r.body[:0], r.e.name, v, target)
	sp := r.rec.begin("http.bfs", r.root, readerConn, req)
	status, resp, err := hc.do("POST", "/query/bfs", r.body)
	r.rec.end(sp)
	var a serve.BFSAnswer
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &a) != nil ||
		a.Src != int64(v) || a.Target != int64(target) || a.Epoch < r.epoch {
		return false
	}
	r.epoch = a.Epoch
	r.reads = append(r.reads, read{epoch: a.Epoch, v: v, target: target, dist: a.Dist, reachable: a.Reachable, count: a.Visited})
	return true
}

// mutate sends batch seq over the writer connection and checks the
// server applied exactly it.
func (e *streamEnv) mutate(seq int, rec *recorder, root int32) (ok, compacted bool) {
	sp := rec.begin("http.mutate", root, writerConn, int64(seq))
	status, resp, err := e.front.conns[writerConn].do("POST", "/mutate", e.bodies[seq-1])
	rec.end(sp)
	var a serve.MutateAnswer
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &a) != nil {
		return false, false
	}
	return a.Status == evolve.StatusApplied && a.Seq == uint64(seq) && a.Epoch == uint64(seq) && a.Applied == 1, a.Compacted
}

func (e *streamEnv) run(seed int64, dur time.Duration, rec *recorder) (streamRun, error) {
	var run streamRun
	rd := &reader{e: e, rng: rand.New(rand.NewSource(seed ^ 0x5ead)), n: e.g0.NumVertices(), rec: rec}
	wroot := rec.begin("client.conn", noSpan, writerConn, -1)
	rd.root = rec.begin("client.conn", noSpan, readerConn, -1)

	// Phase A: both connections open-loop.
	events := readerSchedule(e.def, openShare(dur))
	readDue := make([]time.Duration, len(events))
	for i, ev := range events {
		readDue[i] = ev.due
	}
	compacted := make([]bool, e.nOpen)
	per, _, err := runOpenLoop([][]time.Duration{fixedSchedule(e.def.WriteBatchesPerS, openShare(dur)), readDue}, nil, func(conn, k int) bool {
		if conn == writerConn {
			ok, c := e.mutate(k+1, rec, wroot)
			compacted[k] = c
			return ok
		}
		return rd.do(events[k].component, int64(k))
	})
	if err != nil {
		return run, err
	}
	for k, l := range per[writerConn].lat {
		if compacted[k] {
			run.compacts = append(run.compacts, ms(l))
		} else {
			run.writes = append(run.writes, ms(l))
		}
	}
	r := per[readerConn]
	run.bfs, run.comp = newSamples(len(r.lat), true), newSamples(len(r.lat)/8, true)
	for k, ev := range events {
		dst := &run.bfs
		if ev.component {
			dst = &run.comp
		}
		dst.lat, dst.late, dst.ok = append(dst.lat, r.lat[k]), append(dst.late, r.late[k]), append(dst.ok, r.ok[k])
	}
	run.gen = lateness(run.bfs, 2)
	run.attempted = len(per[writerConn].lat)
	run.failed = per[writerConn].failed()

	// Phase B: the writer closed-loop through the rest of the stream,
	// the reader still on its schedule until the writer is done. The
	// writer calls Server.Mutate — what /mutate calls — in-process: over
	// the connection, each batch's round trip (two thread hand-offs,
	// 80 or 160 µs by where the OS happened to place the threads for
	// the run) outweighs the 56 µs the server spends applying it, and
	// the rate repeated only to ±20 %.
	var writerDone atomic.Bool
	eventsB := readerSchedule(e.def, 4*(dur-openShare(dur))) // ample: the reader stops with the writer
	dueB := make([]time.Duration, len(eventsB))
	for i, ev := range eventsB {
		dueB[i] = ev.due
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var readErr error
	go func() {
		defer wg.Done()
		_, _, readErr = runOpenLoop([][]time.Duration{dueB}, &writerDone, func(_, k int) bool {
			return rd.do(eventsB[k].component, int64(len(events)+k))
		})
	}()
	next := e.nOpen
	wB, _ := runClosedLoop(time.Hour, 1, false, func(_, _ int) (bool, bool) {
		if next >= len(e.batches) {
			return false, true
		}
		next++
		sp := rec.begin("serve.mutate", wroot, writerConn, int64(next))
		a, err := e.srv.Mutate(e.name, e.batches[next-1])
		rec.end(sp)
		return err == nil && a.Status == evolve.StatusApplied && a.Epoch == uint64(next) && a.Applied == 1, false
	})
	writerDone.Store(true)
	wg.Wait()
	rec.end(wroot)
	rec.end(rd.root)
	if readErr != nil {
		return run, readErr
	}
	run.opsPerS = bestWindowsRate(cycleRates(wB[0].at, e.def.CompactEvery)) * float64(e.def.BatchOps)
	run.applied = next
	run.attempted += len(wB[0].lat) + rd.sent
	run.failed += wB[0].failed() + rd.failed
	run.reads = rd.reads
	return run, nil
}

// cycleRates cuts the closed-loop writer's completion instants into
// compaction cycles — `cycle` consecutive batches, exactly one of
// which folds the overlay — and returns each cycle's batches per
// second. A cycle is the window of the rate estimator here: every one
// holds the same work.
func cycleRates(at []time.Duration, cycle int) []float64 {
	var rates []float64
	prev := time.Duration(0)
	for i := cycle - 1; i < len(at); i += cycle {
		rates = append(rates, float64(cycle)/(at[i]-prev).Seconds())
		prev = at[i]
	}
	if len(rates) == 0 && len(at) > 0 {
		rates = []float64{float64(len(at)) / at[len(at)-1].Seconds()}
	}
	return rates
}

// component returns the label (minimum vertex ID) and size of v's weak
// component in snapshot s, by traversal.
func component(s *evolve.Snapshot, v graph.VertexID) (label graph.VertexID, size int) {
	seen := make([]bool, s.NumVertices())
	seen[v] = true
	queue := []graph.VertexID{v}
	label = v
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		size++
		label = min(label, u)
		visit := func(ws []graph.VertexID) {
			for _, w := range ws {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		visit(s.Out(u))
		if s.Directed() {
			visit(s.In(u))
		}
	}
	return label, size
}

// verify replays the applied batches cleanly and in order on a private
// evolve.Mutable, checks every recorded answer against the replay at
// the answer's own epoch, and finally compares the served graph with
// the replay's byte for byte (GCSR serialisation). It returns the
// number of wrong answers (a final mismatch counts as one) and the
// time the checks took.
func (e *streamEnv) verify(run *streamRun, log func(string, ...any)) (wrong int, took time.Duration) {
	t0 := time.Now()
	reads := slices.Clone(run.reads)
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].epoch < reads[j].epoch })
	mut := evolve.NewMutable(e.g0)
	ri := 0
	check := func(s *evolve.Snapshot) {
		for ; ri < len(reads) && reads[ri].epoch == s.Epoch(); ri++ {
			r := reads[ri]
			if r.component {
				label, size := component(s, graph.VertexID(r.v))
				if r.label != int64(label) || r.count != size {
					wrong++
					log("WRONG component(%d) at epoch %d: got (%d,%d), replay (%d,%d)\n", r.v, r.epoch, r.label, r.count, label, size)
				}
				continue
			}
			levels, visited, _ := s.BFS(graph.VertexID(r.v))
			if want := levels[r.target]; r.dist != want || r.reachable != (want >= 0) || r.count != visited {
				wrong++
				log("WRONG bfs(%d→%d) at epoch %d: got dist %d visited %d, replay dist %d visited %d\n", r.v, r.target, r.epoch, r.dist, r.count, want, visited)
			}
		}
	}
	check(mut.Snapshot())
	for _, b := range e.batches[:run.applied] {
		res, err := mut.Submit(b)
		if err != nil || res.Status != evolve.StatusApplied {
			wrong++
			log("replay: batch %d not applied: %v %s\n", b.Seq, err, res.Status)
			return wrong, time.Since(t0)
		}
		check(mut.Snapshot())
	}
	if ri != len(reads) {
		wrong += len(reads) - ri
		log("WRONG: %d answers carry an epoch beyond the %d batches applied\n", len(reads)-ri, run.applied)
	}
	served, err := e.srv.Snapshot(e.name)
	if err != nil {
		log("final snapshot: %v\n", err)
		return wrong + 1, time.Since(t0)
	}
	var got, want bytes.Buffer
	if err := graph.WriteBinary(&got, served.Materialize()); err != nil {
		log("final snapshot: %v\n", err)
		return wrong + 1, time.Since(t0)
	}
	if err := graph.WriteBinary(&want, mut.Snapshot().Materialize()); err != nil {
		log("replay snapshot: %v\n", err)
		return wrong + 1, time.Since(t0)
	}
	if served.Epoch() != uint64(run.applied) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		wrong++
		log("MISMATCH: served graph at epoch %d differs from the clean replay of %d batches\n", served.Epoch(), run.applied)
	}
	return wrong, time.Since(t0)
}

// overlayShare is the share of BFS answers served while the overlay
// held unfolded batches (epoch ≠ base epoch): with one in-order writer
// the server folds at every multiple of compact_every, which the
// final /stats reading confirms.
func overlayShare(reads []read, compactEvery int) float64 {
	var bfs, overlay int
	for _, r := range reads {
		if !r.component {
			bfs++
			if r.epoch%uint64(compactEvery) != 0 {
				overlay++
			}
		}
	}
	if bfs == 0 {
		return 0
	}
	return float64(overlay) / float64(bfs)
}

func runStream(def *workloadDef, o runOpts) (measured, int, int, error) {
	runtime.GOMAXPROCS(procs())
	m := make(measured)
	dur := o.duration()
	closed := def.ClosedBatches // phase B's fixed work, whatever the seconds
	if o.smoke {
		closed /= 16
	}
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, format, args...) }

	if !o.trace {
		env, setupS, err := medianSetup(o.setupOnce(),
			func() (*streamEnv, error) { return setupStream(def, o.seed, dur, closed, nil) },
			(*streamEnv).close)
		if err != nil {
			return nil, 0, 0, err
		}
		defer env.close()
		run, err := env.run(o.seed, dur, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		wrong, took := env.verify(&run, logf)
		m["setup_s"] = setupS
		m["throughput"] = run.opsPerS
		latencyMetrics(o, m, def.Name, run.bfs, run.gen)
		logf("%s: write p50 %.4f ms (n=%d), compacting write p50 %.4f ms (n=%d), component p50 %.4f ms (n=%d); closed-loop writer %.0f mutations/s, %d batches applied; %d answers replayed in %.2f s\n",
			def.Name, median(run.writes), len(run.writes), median(run.compacts), len(run.compacts),
			percentile(durationsMs(run.comp.lat), 50), len(run.comp.lat), run.opsPerS, run.applied, len(run.reads), took.Seconds())
		failed := run.failed + wrong
		if err := env.front.checkConns(2); err != nil {
			return nil, 0, 0, err
		}
		checkGenerator(o, run.gen)
		return m, run.attempted, failed, nil
	}

	// Traced run: the phases with the open loop at half length, untraced
	// (the baseline), then traced.
	plain, err := setupStream(def, o.seed, dur/2, closed, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	base, err := plain.run(o.seed, dur/2, nil)
	if err != nil {
		plain.close()
		return nil, 0, 0, err
	}
	baseWrong, _ := plain.verify(&base, logf)
	plain.close()
	runtime.GC() // the traced half starts from the heap the baseline started from

	sess := obs.NewSession(obs.Options{NoSampler: true})
	env, err := setupStream(def, o.seed, dur/2, closed, sess)
	if err != nil {
		return nil, 0, 0, err
	}
	defer env.close()
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := env.run(o.seed, dur/2, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.ReadMemStats(&after)
	wrong, _ := env.verify(&run, logf)

	m["write_p50_ms"] = median(run.writes)
	m["compact_p50_ms"] = median(run.compacts)
	m["comp_p50_ms"] = percentile(durationsMs(run.comp.lat), 50)
	m["serve.overlay_read_share"] = overlayShare(run.reads, def.CompactEvery)
	st, err := env.srv.Stats(env.name)
	if err != nil {
		return nil, 0, 0, err
	}
	m["serve.compactions"] = float64(st.Compactions)
	if want := int64(run.applied / def.CompactEvery); st.Compactions != want {
		return nil, 0, 0, fmt.Errorf("server compacted %d times over %d batches, expected %d", st.Compactions, run.applied, want)
	}
	c := sess.Metrics.Snapshot().Counters
	m["serve.queries"] = float64(c["serve.queries"])
	m["serve.batches"] = float64(c["serve.batches"])
	if c["serve.queries"] > 0 {
		m["serve.cache.hit_ratio"] = float64(c["serve.cache.hits"]) / float64(c["serve.queries"])
	}
	if c["serve.batches"] > 0 {
		m["serve.lanes_per_batch"] = float64(c["serve.lanes"]) / float64(c["serve.batches"])
	}
	m["serve.overloads"] = float64(c["serve.overloads"])
	m["serve.deadlines"] = float64(c["serve.deadlines"])
	m["gen.sent"] = float64(run.gen.sent)
	m["gen.late_p99_us"] = run.gen.lateP99us
	m["gen.late_share"] = run.gen.lateShare
	m["gen.inflight_max"] = float64(run.gen.inflightMax)
	memDelta(m, &before, &after)
	if base.opsPerS > 0 {
		m["trace.overhead_share"] = (base.opsPerS - run.opsPerS) / base.opsPerS
	}
	if err := env.probeEvolve(o.seed, m); err != nil {
		return nil, 0, 0, err
	}

	latencyMetrics(o, m, def.Name+" traced", run.bfs, run.gen)
	if err := rec.report(o, m, fmt.Sprintf("%s traced: closed-loop writer %.0f mutations/s against %.0f untraced", def.Name, run.opsPerS, base.opsPerS)); err != nil {
		return nil, 0, 0, err
	}
	return m, base.attempted + run.attempted, base.failed + baseWrong + run.failed + wrong, nil
}

// probeEvolve times the layers under /mutate and the overlay read path
// directly, replaying the start of the same update stream on private
// copies: evolve.Mutable.Submit, IncrementalCC.Apply and Server.Mutate
// per batch; then, one compaction cycle in, Mutable.Compact,
// ConnectedComponents, IncrementalCC.Labels and Server.Compact; and
// Snapshot.BFS with its CheckBFS certificate against BFSDirOpt on the
// compacted base.
func (e *streamEnv) probeEvolve(seed int64, m measured) error {
	cycle := e.batches[:min(e.def.CompactEvery, len(e.batches))]

	mut := evolve.NewMutable(e.g0)
	cc := algo.NewIncrementalCC(e.g0)
	var submit, apply []float64
	var mid *evolve.Snapshot // half a cycle in: a typical overlay
	for i, b := range cycle {
		t0 := time.Now()
		if _, err := mut.Submit(b); err != nil {
			return err
		}
		submit = append(submit, us(time.Since(t0)))
		t0 = time.Now()
		cc.Apply(b.Ops)
		apply = append(apply, us(time.Since(t0)))
		if i == len(cycle)/2 {
			mid = mut.Snapshot()
		}
	}
	m["evolve.submit.us"] = median(submit)
	m["algo.incremental_cc.apply.us"] = median(apply)
	full := mut.Snapshot()
	m["evolve.overlay_vertices"] = float64(full.OverlayVertices())
	t0 := time.Now()
	labels := cc.Labels(full)
	m["algo.incremental_cc.labels.ms"] = ms(time.Since(t0))
	t0 = time.Now()
	compacted := mut.Compact()
	m["evolve.compact.ms"] = ms(time.Since(t0))
	t0 = time.Now()
	ref := compacted.Base().ConnectedComponents()
	m["graph.connected_components.ms"] = ms(time.Since(t0))
	if err := algo.CheckLabelsEqual(labels, ref); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x9b0be))
	var snapBFS, check, solo []float64
	for i := 0; i < 32; i++ {
		src := graph.VertexID(rng.Intn(e.g0.NumVertices()))
		t0 = time.Now()
		levels, _, _ := mid.BFS(src)
		snapBFS = append(snapBFS, ms(time.Since(t0)))
		t0 = time.Now()
		if err := evolve.CheckBFS(mid, src, levels); err != nil {
			return err
		}
		check = append(check, ms(time.Since(t0)))
		t0 = time.Now()
		algo.BFSDirOpt(e.g0, src, algo.GapOptions{})
		solo = append(solo, us(time.Since(t0)))
	}
	m["evolve.snapshot_bfs.ms"] = median(snapBFS)
	m["evolve.check_bfs.ms"] = median(check)
	m["algo.bfs_diropt.us"] = median(solo)
	if m["algo.bfs_diropt.us"] > 0 {
		m["evolve.overlay_read_penalty"] = m["evolve.snapshot_bfs.ms"] * 1e3 / m["algo.bfs_diropt.us"]
	}

	// The same cycle through a private server, compaction by hand.
	def := *e.def
	def.CompactEvery = -1
	srv, _, err := startServer(&def, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	var mutate []float64
	for _, b := range cycle {
		t0 = time.Now()
		if _, err := srv.Mutate(e.name, b); err != nil {
			return err
		}
		mutate = append(mutate, us(time.Since(t0)))
	}
	m["serve.mutate.inproc_us"] = median(mutate)
	t0 = time.Now()
	if _, err := srv.Compact(e.name); err != nil {
		return err
	}
	m["serve.compact.ms"] = ms(time.Since(t0))
	return nil
}
