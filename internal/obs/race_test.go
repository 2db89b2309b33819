package obs

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentEngineWorkers hammers the registry, tracer, and
// sampler from many goroutines at once — the shape of five engines'
// worker pools reporting into one session. Run under -race (the
// scripts/check.sh and CI race jobs include this package).
func TestConcurrentEngineWorkers(t *testing.T) {
	s := NewSession(Options{SpanCapacity: 1 << 12, SampleInterval: 200 * time.Microsecond})
	defer s.Close()

	const workers = 16
	const iters = 2000

	run := s.T().Begin("run", KindRun, -1, SpanRef{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker resolves its handles once, as engines do.
			bytes := s.R().Counter("engine.bytes")
			records := s.R().Counter("engine.records")
			peak := s.R().Gauge("engine.peak")
			for i := 0; i < iters; i++ {
				sp := s.T().Begin("superstep", KindSuperstep, int64(i), run)
				bytes.Add(64)
				records.Add(1)
				peak.SetMax(int64(w*iters + i))
				// Late registration races against the sampler snapshot.
				s.R().Counter("engine.dynamic").Add(1)
				s.T().End(sp)
			}
		}(w)
	}
	wg.Wait()
	s.T().End(run)
	s.Close()

	snap := s.R().Snapshot()
	if got := snap.Counters["engine.bytes"]; got != workers*iters*64 {
		t.Fatalf("engine.bytes = %d, want %d", got, workers*iters*64)
	}
	if got := snap.Counters["engine.records"]; got != workers*iters {
		t.Fatalf("engine.records = %d, want %d", got, workers*iters)
	}
	if got := snap.Gauges["engine.peak"]; got != workers*iters-1 {
		t.Fatalf("engine.peak = %d, want %d", got, workers*iters-1)
	}
	if len(s.Sampler.Samples()) < 1 {
		t.Fatal("sampler recorded nothing")
	}
}

// TestConcurrentRingWrap holds many spans open across a tiny ring so
// slot recycling constantly collides between goroutines: Ends land on
// recycled slots, Begins race other Begins a full wrap ahead. This is
// the shape a sustained loadtest produces (millions of spans through
// one ring) and must be an ordinary lost-span, never a data race.
func TestConcurrentRingWrap(t *testing.T) {
	tr := NewTracer(16)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			open := make([]SpanRef, 0, 64)
			for i := 0; i < 4000; i++ {
				open = append(open, tr.Begin("wrap", KindPhase, int64(i), SpanRef{}))
				if len(open) == cap(open) {
					for _, r := range open {
						tr.End(r)
					}
					open = open[:0]
				}
			}
			for _, r := range open {
				tr.End(r)
			}
		}()
	}
	wg.Wait()
	recs := tr.Export()
	for _, r := range recs {
		if r.EndNs < r.StartNs {
			t.Fatalf("span %d ends at %d before its start %d", r.ID, r.EndNs, r.StartNs)
		}
	}
	if len(recs) > 16 {
		t.Fatalf("a 16-slot ring exported %d spans", len(recs))
	}
}
