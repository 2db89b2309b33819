package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The benchmark's own span recorder. It wraps every call the benchmark
// makes into a layer of the program (from outside — spans inside the
// program are ROADMAP item 1) and keeps the spans in memory until the
// run ends. A nil *recorder is the untraced state: begin and end are
// one branch each, so the end-to-end run pays nothing for it.
//
// A span carries the span that caused it (parent) and a track: the
// connection, caller or batch cell whose work it is part of. Spans on
// one track nest; self time is a span's duration minus the part of it
// its children cover.

type span struct {
	name   string
	start  int64 // ns since recorder epoch
	end    int64 // 0 while open
	parent int32 // index into spans, -1 for a track's root
	track  int32
	req    int64 // request / cell id, -1 when meaningless
}

// maxSpans bounds recorder memory (≈48 B a span); spans begun beyond
// it are counted as dropped.
const maxSpans = 4 << 20

type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// noSpan is the handle begin returns when nothing was recorded.
const noSpan = int32(-1)

func (r *recorder) begin(name string, parent, track int32, req int64) int32 {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return noSpan
	}
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, track: track, req: req})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// importObs copies the completed spans of the program's existing
// obs tracer (engine supersteps, MapReduce phases, serve.batch
// sweeps) under parent, on parent's track, translating its clock to
// the recorder's. Top-level obs spans hang off parent; nested ones
// keep their own parent, and a parentless one that lies inside another
// (a YARN application around its jobs) is nested under it, so siblings
// never overlap and self times still add up. Spans begun before since
// are skipped (warm-up). rename maps an obs span name and kind to the
// benchmark's name.
func (r *recorder) importObs(t *obs.Tracer, tracerEpoch time.Time, parent, track int32, req int64, since time.Time, rename func(name, kind string) string) {
	if r == nil || t == nil {
		return
	}
	recs := t.Export()
	shift := int64(tracerEpoch.Sub(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make(map[uint64]int32, len(recs))
	var top []int32 // imported parentless spans, by start
	minStart := int64(since.Sub(tracerEpoch))
	for _, rec := range recs { // Export orders by start, so parents come first
		if rec.StartNs < minStart {
			continue
		}
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		p, nested := parent, false
		if pi, ok := idx[rec.ParentID]; ok {
			p, nested = pi, true
		} else {
			for i := len(top) - 1; i >= 0; i-- {
				if e := r.spans[top[i]]; e.start <= rec.StartNs+shift && rec.EndNs+shift <= e.end {
					p = top[i]
					break
				}
			}
		}
		r.spans = append(r.spans, span{
			name: rename(rec.Name, rec.Kind), start: rec.StartNs + shift, end: rec.EndNs + shift,
			parent: p, track: track, req: req,
		})
		idx[rec.ID] = int32(len(r.spans) - 1)
		if !nested {
			top = append(top, idx[rec.ID])
		}
	}
}

// selfRow is one row of the self-time table: every span of one name.
type selfRow struct {
	name  string
	count int
	total time.Duration // Σ duration
	self  time.Duration // Σ duration − children-covered part
}

// selfTimes aggregates self time by span name and returns the rows
// (largest self time first) with the summed duration of the root
// spans — the traced wall the rows must add up to.
func (r *recorder) selfTimes() (rows []selfRow, rootTotal time.Duration) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()

	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	byName := make(map[string]*selfRow)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		dur := s.end - s.start
		// Union of the children's intervals, clipped to this span.
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		row := byName[s.name]
		if row == nil {
			row = &selfRow{name: s.name}
			byName[s.name] = row
		}
		row.count++
		row.total += time.Duration(dur)
		row.self += time.Duration(dur - covered)
		if s.parent < 0 {
			rootTotal += time.Duration(dur)
		}
	}
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].self != rows[b].self {
			return rows[a].self > rows[b].self
		}
		return rows[a].name < rows[b].name
	})
	return rows, rootTotal
}

// total returns Σ duration and the count of the completed spans named
// name.
func (r *recorder) total(name string) (time.Duration, int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var d int64
	n := 0
	for _, s := range r.spans {
		if s.name == name && s.end != 0 {
			d += s.end - s.start
			n++
		}
	}
	return time.Duration(d), n
}

func (r *recorder) count() (spans int, dropped int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), r.dropped
}

// writeSelfTable prints the self-time table and returns the share of
// the traced wall the rows account for (1 when every span nests inside
// its track's root).
func writeSelfTable(w io.Writer, rows []selfRow, rootTotal time.Duration) float64 {
	var sum time.Duration
	fmt.Fprintf(w, "  %-34s %9s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "share")
	line := func(row selfRow) {
		share := 0.0
		if rootTotal > 0 {
			share = float64(row.self) / float64(rootTotal)
		}
		fmt.Fprintf(w, "  %-34s %9d %12.3f %12.3f %6.1f%%\n", row.name, row.count, ms(row.total), ms(row.self), 100*share)
	}
	const maxRows = 16 // the rest is summed into one row
	rest := selfRow{name: "(other spans)"}
	for i, row := range rows {
		sum += row.self
		if i < maxRows {
			line(row)
			continue
		}
		rest.count += row.count
		rest.total += row.total
		rest.self += row.self
	}
	if rest.count > 0 {
		line(rest)
	}
	coverage := 0.0
	if rootTotal > 0 {
		coverage = float64(sum) / float64(rootTotal)
	}
	fmt.Fprintf(w, "  self times sum to %.3f ms of %.3f ms traced wall (%.1f%%)\n", ms(sum), ms(rootTotal), 100*coverage)
	return coverage
}

// writeChrome writes the spans as Chrome trace_event JSON ("X"
// complete events; one thread track per recorder track), loadable in
// chrome://tracing or Perfetto.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end == 0 {
			continue
		}
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.req >= 0 {
			args["req"] = s.req
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.track, Args: args,
		})
	}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// report closes a traced run: it prints the self-time table under
// heading, fills the trace.* metrics and writes the spans where
// -trace-out says.
func (r *recorder) report(o runOpts, m measured, heading string) error {
	fmt.Fprintf(o.log, "%s; per-layer self times:\n", heading)
	rows, rootTotal := r.selfTimes()
	m["trace.self_coverage"] = writeSelfTable(o.log, rows, rootTotal)
	spans, dropped := r.count()
	m["trace.spans"], m["trace.dropped"] = float64(spans), float64(dropped)
	if o.traceOut == "" {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := r.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
