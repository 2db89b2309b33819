package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Load generation. Every driver below runs in this process on at most
// `conns`/`clients` goroutines plus the pacer, and hands each request
// to a caller-supplied function that sends it, checks the answer and
// reports whether it was correct.
//
// Open-loop drivers send on a schedule fixed before the phase starts
// and time every request from the instant it was DUE, not the instant
// it was sent: when the system (or the generator) stalls, the requests
// that were due during the stall carry the wait, so a slow system is
// not offered less load (no coordinated omission). How late the
// generator itself ran is recorded per request and reported.

// samples is what one connection (or the spawn pacer) measured, in
// schedule order.
type samples struct {
	lat  []time.Duration // completion − due (open loop) or − send (closed loop)
	late []time.Duration // open loop only: how late the generator sent (see runOpenLoop)
	at   []time.Duration // closed loop only: completion instant since the phase started
	ok   []bool
}

func newSamples(n int, open bool) samples {
	s := samples{lat: make([]time.Duration, 0, n), ok: make([]bool, 0, n)}
	if open {
		s.late = make([]time.Duration, 0, n)
	}
	return s
}

// fixedSchedule returns the due offsets of a constant-rate arrival
// process: request i is due i/rate after the phase starts.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return due
}

// dealSchedule deals a schedule round-robin over conns connections:
// connection c gets requests c, c+conns, c+2·conns, …
func dealSchedule(due []time.Duration, conns int) [][]time.Duration {
	plans := make([][]time.Duration, conns)
	for i, d := range due {
		plans[i%conns] = append(plans[i%conns], d)
	}
	return plans
}

// startLead is how far in the future a phase's first request is due,
// so every connection goroutine is running before the schedule starts.
const startLead = 2 * time.Millisecond

// runOpenLoop sends over len(plans) connections, one goroutine each:
// connection c's k-th request is due at plans[c][k] and is sent then,
// or as soon as the connection's previous request has completed (one
// in flight per connection, like HTTP/1.1 keep-alive). Each goroutine
// paces itself (see pacer), so no hand-off sits between the due
// instant and the send, and owns an OS thread, as a client in a process
// of its own would: left to the Go scheduler, client and server
// goroutines sometimes hand the processor to each other on the fast
// path and sometimes not, by placement luck that lasts a whole run
// (measured: closed-loop capacity 48 k or 61 k qps, nothing between). A non-nil stop ends every connection's
// schedule early once it reads true. It returns per-connection
// samples and the phase's elapsed time.
func runOpenLoop(plans [][]time.Duration, stop *atomic.Bool, do func(conn, k int) bool) ([]samples, time.Duration, error) {
	pacers := make([]*pacer, len(plans))
	for c := range pacers {
		p, err := newPacer(meanGap(plans[c]))
		if err != nil {
			return nil, 0, err
		}
		defer p.Close()
		pacers[c] = p
	}
	out := make([]samples, len(plans))
	start := time.Now().Add(startLead)
	var wg sync.WaitGroup
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			s := newSamples(len(plans[c]), true)
			var free time.Time // when the previous request completed
			for k, off := range plans[c] {
				if stop != nil && stop.Load() {
					break
				}
				due := start.Add(off)
				pacers[c].waitUntil(due)
				// Lateness is the generator's own: time past the later of
				// the due instant and the connection becoming free.
				// Waiting for the previous answer is queueing, and shows
				// in the latency, which runs from the due instant.
				now := time.Now()
				s.late = append(s.late, now.Sub(latest(due, free)))
				ok := do(c, k)
				free = time.Now()
				s.lat = append(s.lat, free.Sub(due))
				s.ok = append(s.ok, ok)
			}
			out[c] = s
		}(c)
	}
	wg.Wait()
	return out, time.Since(start), nil
}

// meanGap is the average distance between the requests of a schedule.
func meanGap(due []time.Duration) time.Duration {
	if len(due) < 2 {
		return time.Second
	}
	return (due[len(due)-1] - due[0]) / time.Duration(len(due)-1)
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runOpenLoopSpawn starts a goroutine for every request at its due
// time, so any number can be in flight (callers of an in-process API,
// not connections). It also returns the most requests in flight at
// once.
func runOpenLoopSpawn(due []time.Duration, do func(k int) bool) (samples, int, time.Duration, error) {
	p, err := newPacer(meanGap(due))
	if err != nil {
		return samples{}, 0, 0, err
	}
	defer p.Close()
	s := samples{
		lat:  make([]time.Duration, len(due)),
		late: make([]time.Duration, len(due)),
		ok:   make([]bool, len(due)),
	}
	start := time.Now().Add(startLead)
	var inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	for k, off := range due {
		dueAt := start.Add(off)
		p.waitUntil(dueAt)
		s.late[k] = time.Since(dueAt)
		if n := inflight.Add(1); n > inflightMax.Load() {
			inflightMax.Store(n) // only the pacer writes the maximum
		}
		wg.Add(1)
		go func(k int, dueAt time.Time) {
			defer wg.Done()
			s.ok[k] = do(k)
			s.lat[k] = time.Since(dueAt)
			inflight.Add(-1)
		}(k, dueAt)
	}
	wg.Wait()
	return s, int(inflightMax.Load()), time.Since(start), nil
}

// runClosedLoop drives `clients` goroutines that each send their next
// request as soon as the previous one completes, until dur has passed
// or do reports the client has nothing left to send (done=true).
// ownThreads gives each client an OS thread (connections, see
// runOpenLoop); in-process callers stay plain goroutines.
func runClosedLoop(dur time.Duration, clients int, ownThreads bool, do func(client, k int) (ok, done bool)) ([]samples, time.Duration) {
	out := make([]samples, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if ownThreads {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			s := newSamples(1024, false)
			for k := 0; ; k++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				ok, done := do(c, k)
				if done {
					break
				}
				t1 := time.Now()
				s.lat = append(s.lat, t1.Sub(t0))
				s.at = append(s.at, t1.Sub(start))
				s.ok = append(s.ok, ok)
			}
			out[c] = s
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// mergeByDue interleaves per-connection open-loop samples back into
// global schedule order (the inverse of dealSchedule), which is the
// arrival order the windowed-p99 estimator cuts into windows.
func mergeByDue(per []samples) samples {
	var n int
	for _, s := range per {
		n += len(s.lat)
	}
	m := newSamples(n, true)
	for k := 0; ; k++ {
		any := false
		for _, s := range per {
			if k < len(s.lat) {
				any = true
				m.lat = append(m.lat, s.lat[k])
				m.late = append(m.late, s.late[k])
				m.ok = append(m.ok, s.ok[k])
			}
		}
		if !any {
			return m
		}
	}
}

// concat joins closed-loop samples of several clients (order between
// clients carries no meaning there).
func concat(per []samples) samples {
	var m samples
	for _, s := range per {
		m.lat = append(m.lat, s.lat...)
		m.at = append(m.at, s.at...)
		m.ok = append(m.ok, s.ok...)
	}
	return m
}

func (s samples) failed() int {
	n := 0
	for _, ok := range s.ok {
		if !ok {
			n++
		}
	}
	return n
}

// genStats describes how well an open-loop generator kept its
// schedule.
type genStats struct {
	sent        int
	lateP99us   float64
	lateShare   float64 // share of requests sent late (see lateness)
	inflightMax int
}

// lateness summarises an open-loop phase's send lateness against its
// own median latency: a request sent more than a tenth of the median
// latency late has a latency that says more about the generator than
// about the system. A tenth of the hot path's median is a few
// microseconds, below what any generator sharing the processors can
// hold, so lateFloor bounds the threshold from below. A phase whose
// lateShare exceeds maxLateShare is reported invalid, not slow.
func lateness(s samples, inflightMax int) genStats {
	sorted := slices.Clone(s.lat)
	slices.Sort(sorted)
	limit := lateFloor
	if len(sorted) > 0 {
		limit = max(sorted[len(sorted)/2]/10, lateFloor)
	}
	over := 0
	for _, l := range s.late {
		if l > limit {
			over++
		}
	}
	g := genStats{sent: len(s.lat), inflightMax: inflightMax}
	if len(s.late) > 0 {
		lateUs := make([]float64, len(s.late))
		for i, l := range s.late {
			lateUs[i] = us(l)
		}
		g.lateP99us = percentile(lateUs, 99)
		g.lateShare = float64(over) / float64(len(s.late))
	}
	return g
}

const (
	maxLateShare = 0.05
	// lateFloor is the wake-up granularity of the generator itself on
	// the reference box (timer → poller → goroutine, 2 shared vCPUs).
	lateFloor = 100 * time.Microsecond
)
