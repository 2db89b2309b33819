package main

import (
	"slices"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := fixedSchedule(10000, 50*time.Millisecond), fixedSchedule(10000, 50*time.Millisecond)
	if len(a) != 500 || !slices.Equal(a, b) {
		t.Fatalf("fixedSchedule not reproducible: %d and %d entries", len(a), len(b))
	}
	for _, name := range []string{"serve-hot-http", "serve-cold-batch"} {
		def, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p1, p2, p3 := newQueryPlan(def, 1529, 7), newQueryPlan(def, 1529, 7), newQueryPlan(def, 1529, 8)
		if !slices.Equal(p1.src, p2.src) || !slices.Equal(p1.target, p2.target) {
			t.Errorf("%s: same seed gave different query plans", name)
		}
		if slices.Equal(p1.src, p3.src) {
			t.Errorf("%s: different seeds gave the same sources", name)
		}
	}
	def, err := loadWorkload("stream-rw")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(readerSchedule(def, time.Second), readerSchedule(def, time.Second)) {
		t.Error("stream-rw: reader schedule not reproducible")
	}
}

func TestPermutationPlanRepeatsOnlyAfterACycle(t *testing.T) {
	def, err := loadWorkload("serve-cold-batch")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1529
	p := newQueryPlan(def, n, 3)
	if len(p.src)%n != 0 {
		t.Fatalf("plan of %d entries is not a whole number of cycles of %d", len(p.src), n)
	}
	last := make(map[int32]int)
	for i, s := range p.src {
		if j, seen := last[s]; seen && i-j != n {
			t.Fatalf("source %d repeats after %d requests, want %d", s, i-j, n)
		}
		last[s] = i
	}
	if hot, _ := loadWorkload("serve-hot-http"); len(newQueryPlan(hot, n, 3).sources()) != hot.WorkingSet {
		t.Errorf("hot plan does not draw from exactly %d sources", hot.WorkingSet)
	}
}

// A handler that stalls for 50 ms must inflate the latency of the
// requests that were DUE during the stall, because latency runs from
// the intended send instant: no coordinated omission.
func TestStallCountsAgainstRequestsDueDuringIt(t *testing.T) {
	const rate, stallAt = 1000, 50
	stall := 50 * time.Millisecond
	plan := fixedSchedule(rate, 200*time.Millisecond)
	per, _, err := runOpenLoop([][]time.Duration{plan}, nil, func(_, k int) bool {
		if k == stallAt {
			time.Sleep(stall)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	s := per[0]
	if len(s.lat) != len(plan) {
		t.Fatalf("sent %d of %d requests", len(s.lat), len(plan))
	}
	// Request stallAt+10 was due 10 ms into the stall: it waited for
	// the remaining ~40 ms although its own service is instant.
	if got := s.lat[stallAt+10]; got < 30*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want ≥ 30ms", got)
	}
	if got := percentile(durationsMs(s.lat[:stallAt]), 50); got > 5 {
		t.Errorf("requests before the stall have median latency %.3f ms, want well under the stall", got)
	}
	// Closed-loop timing of the same requests would have hidden it:
	// only the stalled request itself is slow from its send instant.
	slow := 0
	for _, l := range s.lat {
		if l > 10*time.Millisecond {
			slow++
		}
	}
	if slow < 30 {
		t.Errorf("only %d requests carry the stall, want the ~40 that were due during it", slow)
	}
	// Waiting for the connection is queueing, not generator lateness.
	if g := lateness(s, 1); g.lateP99us > 20e3 {
		t.Errorf("generator lateness p99 %.0f us: the handler's stall was booked to the generator", g.lateP99us)
	}
}

// A generator that itself runs late must show in gen.late_p99_us and
// gen.late_share.
func TestLateGeneratorIsVisible(t *testing.T) {
	s := newSamples(1000, true)
	for i := 0; i < 1000; i++ {
		late := 5 * time.Microsecond
		if i%10 == 0 {
			late = 3 * time.Millisecond // every tenth send 3 ms late
		}
		s.late = append(s.late, late)
		s.lat = append(s.lat, 2*time.Millisecond+late)
		s.ok = append(s.ok, true)
	}
	g := lateness(s, 4)
	if g.lateP99us < 2900 {
		t.Errorf("late p99 = %.0f us, want ≈ 3000", g.lateP99us)
	}
	if g.lateShare < 0.09 || g.lateShare > 0.11 {
		t.Errorf("late share = %.3f, want 0.10", g.lateShare)
	}
	if g.lateShare <= maxLateShare {
		t.Error("a generator late on a tenth of its sends passes as valid")
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 10*p99Window)
	for i := range xs {
		xs[i] = 1 + float64(i%100)/1000 // 1.000 … 1.099
	}
	for i := 3 * p99Window; i < 3*p99Window+50; i++ {
		xs[i] = 80 // one scheduler stall: 50 slow samples in window 3
	}
	got, windows := windowedP99(xs, p99Window)
	if windows != 10 {
		t.Fatalf("windows = %d, want 10", windows)
	}
	if got > 1.1 {
		t.Errorf("windowed p99 = %v: one stalled window set the estimate", got)
	}
	if plain := percentile(xs, 99.9); plain < 80 {
		t.Errorf("the stall is not in the data (p99.9 = %v)", plain)
	}
	if got, windows := windowedP99(xs[:300], p99Window); windows != 1 || got != percentile(xs[:300], 99) {
		t.Errorf("short input: got %v over %d windows, want the plain p99 over 1", got, windows)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestClosedLoopStopsAtDeadlineOrDone(t *testing.T) {
	per, elapsed := runClosedLoop(50*time.Millisecond, 3, false, func(c, k int) (bool, bool) {
		time.Sleep(time.Millisecond)
		return true, c == 0 && k == 5 // client 0 runs out of work
	})
	if len(per[0].lat) != 5 {
		t.Errorf("client 0 sent %d requests, want 5", len(per[0].lat))
	}
	if len(per[1].lat) < 10 || elapsed > 500*time.Millisecond {
		t.Errorf("client 1 sent %d requests in %v", len(per[1].lat), elapsed)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "child", start: 10, end: 40, parent: 0},
		{name: "child", start: 30, end: 60, parent: 0}, // overlaps the first: union is 10..60
		{name: "leaf", start: 15, end: 20, parent: 1},
	}
	rows, rootTotal := r.selfTimes()
	self := make(map[string]time.Duration)
	for _, row := range rows {
		self[row.name] = row.self
	}
	if rootTotal != 100 || self["root"] != 50 || self["child"] != 55 || self["leaf"] != 5 {
		t.Errorf("rootTotal %v, self %v", rootTotal, self)
	}
}
