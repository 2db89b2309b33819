package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pregel.messages")
	c.Add(5)
	c.Add(7)
	if got := r.Counter("pregel.messages").Get(); got != 12 {
		t.Fatalf("counter = %d, want 12", got)
	}
	g := r.Gauge("pregel.peak_send_bytes")
	g.SetMax(100)
	g.SetMax(40) // lower: must not regress
	g.SetMax(250)
	if got := g.Get(); got != 250 {
		t.Fatalf("gauge high-water = %d, want 250", got)
	}
	g.Set(7)
	if got := g.Get(); got != 7 {
		t.Fatalf("gauge set = %d, want 7", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || len(snap.Gauges) != 1 ||
		snap.Counters["pregel.messages"] != 12 || snap.Gauges["pregel.peak_send_bytes"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.bytes").Add(42)
	r.Gauge("b.peak").Set(9)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics export is not valid JSON: %v", err)
	}
	if snap.Counters["a.bytes"] != 42 || snap.Gauges["b.peak"] != 9 {
		t.Fatalf("round-trip mismatch: %+v", snap)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").SetMax(2)
	if r.Counter("x").Get() != 0 || r.Gauge("y").Get() != 0 {
		t.Fatal("nil registry produced live metrics")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSamplerRecords(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("net_bytes").Add(1000)
	s := NewSampler(reg, time.Millisecond)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	reg.Counter("net_bytes").Add(500)
	s.Stop()
	s.Stop() // idempotent

	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want >= 2", len(samples))
	}
	for i, smp := range samples {
		if smp.HeapBytes == 0 || smp.SysBytes == 0 || smp.Goroutines <= 0 {
			t.Fatalf("sample %d is missing runtime stats: %+v", i, smp)
		}
		if i > 0 && smp.ElapsedNs < samples[i-1].ElapsedNs {
			t.Fatalf("sample times not monotonic")
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if first.Counters["net_bytes"] != 1000 {
		t.Fatalf("first sample counter = %d, want 1000", first.Counters["net_bytes"])
	}
	if last.Counters["net_bytes"] != 1500 {
		t.Fatalf("final sample counter = %d, want 1500", last.Counters["net_bytes"])
	}
}

func TestSessionLifecycleAndMetricsJSON(t *testing.T) {
	s := NewSession(Options{SpanCapacity: 32, SampleInterval: time.Millisecond})
	ref := s.T().Begin("run", KindRun, -1, SpanRef{})
	s.R().Counter("bytes").Add(99)
	s.T().End(ref)
	time.Sleep(3 * time.Millisecond)
	s.Close()

	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics Snapshot `json:"metrics"`
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics doc is not valid JSON: %v", err)
	}
	if doc.Metrics.Counters["bytes"] != 99 {
		t.Fatalf("metrics doc counters = %v", doc.Metrics.Counters)
	}
	if len(doc.Samples) < 2 {
		t.Fatalf("metrics doc has %d samples, want >= 2", len(doc.Samples))
	}
}

func TestNilSession(t *testing.T) {
	var s *Session
	if s.T() != nil || s.R() != nil {
		t.Fatal("nil session returned live components")
	}
	s.Close()
	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil session metrics doc invalid")
	}
}
