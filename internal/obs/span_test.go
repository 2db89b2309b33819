package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// buildTrace records a small nested run → superstep → phase hierarchy.
func buildTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer(64)
	run := tr.Begin("pregel:run", KindRun, -1, SpanRef{})
	for ss := 0; ss < 3; ss++ {
		s := tr.Begin("superstep", KindSuperstep, int64(ss), run)
		p := tr.Begin("barrier", KindPhase, int64(ss), s)
		tr.End(p)
		tr.End(s)
	}
	tr.End(run)
	return tr
}

func TestExportOrderingAndNesting(t *testing.T) {
	tr := buildTrace(t)
	recs := tr.Export()
	if len(recs) != 7 {
		t.Fatalf("got %d spans, want 7", len(recs))
	}
	byID := make(map[uint64]SpanRecord)
	var last int64 = -1
	for _, r := range recs {
		if r.StartNs < last {
			t.Fatalf("spans not ordered by start: %v", recs)
		}
		last = r.StartNs
		if r.EndNs < r.StartNs {
			t.Fatalf("span %s ends before it starts: %+v", r.Name, r)
		}
		byID[r.ID] = r
	}
	// Every child must nest inside its parent's interval.
	for _, r := range recs {
		if r.ParentID == 0 {
			if r.Kind != "run" {
				t.Fatalf("top-level span %q is not the run", r.Name)
			}
			continue
		}
		p, ok := byID[r.ParentID]
		if !ok {
			t.Fatalf("span %s has unknown parent %d", r.Name, r.ParentID)
		}
		if r.StartNs < p.StartNs || r.EndNs > p.EndNs {
			t.Fatalf("span %s [%d,%d] escapes parent %s [%d,%d]",
				r.Name, r.StartNs, r.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	last := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < last {
			t.Fatalf("timestamps not monotonic")
		}
		last = ev.Ts
		if ev.Dur < 0 {
			t.Fatalf("negative duration on %q", ev.Name)
		}
	}
	// Indexed spans render with their repetition number.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "superstep #2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("indexed span name missing from chrome export")
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := NewTracer(16) // capacity rounds to 16
	for i := 0; i < 40; i++ {
		ref := tr.Begin("s", KindPhase, int64(i), SpanRef{})
		tr.End(ref)
	}
	recs := tr.Export()
	if len(recs) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(recs))
	}
	// Only the newest survive.
	for _, r := range recs {
		if r.Index < 40-16 {
			t.Fatalf("stale span %d survived the wrap", r.Index)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ref := tr.Begin("x", KindRun, -1, SpanRef{})
	if ref != (SpanRef{}) {
		t.Fatal("nil tracer returned a valid ref")
	}
	tr.End(ref)
	if tr.Export() != nil {
		t.Fatal("nil tracer exported spans")
	}
}
