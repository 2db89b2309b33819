// Package obs is the shared low-overhead observability layer of the
// engines: a ring-buffered span tracer (run → job/superstep → phase,
// exported as Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto), a registry of typed counters and gauges that unifies the
// engines' byte/record/message accounting, and a sampler goroutine
// that records real runtime.MemStats, goroutine counts, GC pauses, and
// engine byte counters at a fixed interval. Where internal/monitor
// synthesises the paper's resource curves from per-platform
// signatures, obs measures the process we actually run; the two meet
// in monitor.Measured, which interpolates obs samples onto the paper's
// 100 normalised points.
//
// Everything is nil-safe: a nil *Tracer, *Counter, *Gauge, *Registry,
// or *Session turns every hot-path call into a single branch, so
// disabled tracing costs nothing measurable.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// SpanKind classifies a span's level in the run hierarchy.
type SpanKind uint8

const (
	// KindRun is a whole engine run (one experiment).
	KindRun SpanKind = iota
	// KindJob is one job inside a run (a MapReduce job, a YARN app,
	// a dataflow plan).
	KindJob
	// KindSuperstep is one BSP superstep or GAS iteration.
	KindSuperstep
	// KindPhase is one phase inside a job (map, sort-shuffle, reduce,
	// materialise) or inside a superstep.
	KindPhase
	// KindOperator is one dataflow operator execution.
	KindOperator
)

var kindNames = [...]string{"run", "job", "superstep", "phase", "operator"}

// String returns the kind's stable name.
func (k SpanKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// SpanRef identifies a begun span. The zero SpanRef is "no span" and
// is what a nil tracer returns; Begin/End on it are no-ops, and using
// it as a parent means "top level".
type SpanRef struct {
	id uint64 // 1-based global span ordinal; 0 = invalid
}

// span is one ring slot. The gen word is a per-slot seqlock: the
// stable value is the owning span's id shifted left once, the low bit
// marks a writer mid-update. Begin and End claim the slot by CAS
// before touching the plain fields, so recycling a slot on ring wrap
// under concurrent load is an ordinary (race-free) lost-span, not a
// data race. 0 = never used.
type span struct {
	gen    atomic.Uint64 // id<<1, low bit set while being written
	parent uint64
	start  int64 // nanoseconds since tracer epoch
	end    int64 // 0 while open
	index  int64 // e.g. superstep number; -1 when not applicable
	name   string
	kind   SpanKind
}

// Tracer records spans into a fixed ring. The hot path (Begin/End) is
// allocation-free: slots are preallocated, names are caller-provided
// strings, and the per-span "index" integer replaces fmt-formatted
// names. When the ring wraps, the oldest spans are overwritten and
// counted as dropped.
type Tracer struct {
	epoch time.Time
	spans []span
	mask  uint64
	next  atomic.Uint64 // total spans begun
}

// DefaultSpanCapacity bounds the ring when Options do not say
// otherwise: 64Ki spans ≈ 4 MB, enough for every paper experiment.
const DefaultSpanCapacity = 1 << 16

// NewTracer returns a tracer with capacity rounded up to a power of
// two (minimum 16).
func NewTracer(capacity int) *Tracer {
	c := 16
	for c < capacity {
		c <<= 1
	}
	return &Tracer{epoch: time.Now(), spans: make([]span, c), mask: uint64(c - 1)}
}

// now returns nanoseconds since the tracer epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span. index annotates repetition (superstep number,
// operator id); pass -1 when meaningless. parent nests the span; pass
// the zero SpanRef for top level. Begin on a nil tracer is one branch.
func (t *Tracer) Begin(name string, kind SpanKind, index int64, parent SpanRef) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	id := t.next.Add(1)
	s := &t.spans[(id-1)&t.mask]
	for {
		g := s.gen.Load()
		if g>>1 >= id {
			// A later wrap already owns (or is writing) this slot; our
			// span is dropped on arrival. The ref stays valid so End
			// remains a no-op rather than an error.
			return SpanRef{id: id}
		}
		if g&1 != 0 {
			// An older owner is mid-write; it finishes in a few plain
			// stores. Only reachable when a full ring wraps during one
			// slot update, so yielding here costs nothing in practice.
			runtime.Gosched()
			continue
		}
		if s.gen.CompareAndSwap(g, id<<1|1) {
			break
		}
	}
	s.parent = parent.id
	s.start = t.now()
	s.end = 0
	s.index = index
	s.name = name
	s.kind = kind
	s.gen.Store(id << 1)
	return SpanRef{id: id}
}

// End closes a span. Ending a ref whose slot has been recycled by a
// ring wrap is a harmless no-op.
func (t *Tracer) End(ref SpanRef) {
	if t == nil || ref.id == 0 {
		return
	}
	s := &t.spans[(ref.id-1)&t.mask]
	if !s.gen.CompareAndSwap(ref.id<<1, ref.id<<1|1) {
		return // recycled by ring wrap, or a writer owns the slot
	}
	s.end = t.now()
	s.gen.Store(ref.id << 1)
}

// SpanRecord is one exported span.
type SpanRecord struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Index    int64  `json:"index,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// Export returns all completed spans still in the ring, ordered by
// start time (ties by id). Call it after the traced work is quiescent;
// it is not part of the hot path and allocates freely.
func (t *Tracer) Export() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		id := s.gen.Load() >> 1
		if id == 0 || s.end == 0 {
			continue
		}
		out = append(out, SpanRecord{
			ID: id, ParentID: s.parent, Name: s.name, Kind: s.kind.String(),
			Index: s.index, StartNs: s.start, EndNs: s.end,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one trace_event entry. "X" (complete) events carry
// their duration, so chrome://tracing and Perfetto reconstruct the
// nesting from time containment on one thread track.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the Chrome trace file layout (object-with-traceEvents
// form, which both chrome://tracing and Perfetto load).
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the completed spans in Chrome trace_event
// format. Spans with an index ≥ 0 render as "name #index".
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.Export()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(recs)), DisplayTimeUnit: "ms"}
	for _, r := range recs {
		name := r.Name
		if r.Index >= 0 && r.Kind != kindNames[KindRun] {
			name = fmt.Sprintf("%s #%d", r.Name, r.Index)
		}
		args := map[string]any{"id": r.ID}
		if r.ParentID != 0 {
			args["parent"] = r.ParentID
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Ph: "X",
			Ts:  float64(r.StartNs) / 1e3,
			Dur: float64(r.EndNs-r.StartNs) / 1e3,
			PID: 1, TID: 1, Cat: r.Kind, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
