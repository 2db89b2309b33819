// Perf-regression gate: re-run the suite entries recorded in committed
// BENCH_*.json baselines and fail when the live measurement is more
// than Tolerance worse than the committed figure in ns/op or
// allocs/op. This is the `graphbench bench check` subcommand, run in
// CI as its own (non-required) job so a slow runner flags rather than
// blocks a PR.
package perf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datagen"
)

// Tolerance is the allowed relative slowdown before a benchmark counts
// as regressed (25%): generous enough to absorb shared-runner noise,
// tight enough to catch a real O(...) change.
const Tolerance = 0.25

// CheckResult compares one benchmark's live measurement against its
// committed figure.
type CheckResult struct {
	Name string
	// File is the baseline file the reference came from.
	File string
	// RefNs/RefAllocs are the committed figures (After if present,
	// otherwise Before).
	RefNs     float64
	RefAllocs int64
	// GotNs/GotAllocs are the live re-measurements.
	GotNs     float64
	GotAllocs int64
	// Regressed marks entries whose slowdown exceeds Tolerance.
	Regressed bool
	// Skipped marks baseline entries with no measurable target in the
	// fixed suites (or no committed figure): they are reported with a
	// notice instead of being silently dropped, and never fail the
	// check.
	Skipped bool
	// Reason says which metric tripped, or why the entry was skipped.
	Reason string
}

// ratio of live to reference, guarding zero references.
func ratio(got, ref float64) float64 {
	if ref <= 0 {
		return 1
	}
	return got / ref
}

// compare fills the regression verdict from the measured numbers.
func (c *CheckResult) compare() {
	nsRatio := ratio(c.GotNs, c.RefNs)
	allocRatio := ratio(float64(c.GotAllocs), float64(c.RefAllocs))
	var reasons []string
	if nsRatio > 1+Tolerance {
		reasons = append(reasons, fmt.Sprintf("ns/op +%.0f%%", (nsRatio-1)*100))
	}
	if allocRatio > 1+Tolerance {
		reasons = append(reasons, fmt.Sprintf("allocs/op +%.0f%%", (allocRatio-1)*100))
	}
	c.Regressed = len(reasons) > 0
	c.Reason = strings.Join(reasons, ", ")
}

// reference picks the committed figure a live run must beat: the
// post-PR measurement when present, the pre-PR one otherwise.
func reference(r *Record) *Metrics {
	if r.After != nil {
		return r.After
	}
	return r.Before
}

// Check loads the given baseline files, re-measures every entry that
// the fixed suites know how to run, and returns the per-benchmark
// comparison. Entries in a baseline with no matching suite entry are
// reported as skipped with a notice rather than hard-failing or
// vanishing (suites only grow; see the package comment in perf.go).
func Check(paths []string) ([]CheckResult, error) {
	// Suites are constructed lazily, in registry order, only when a
	// baseline entry needs one: each suite constructor generates and
	// retains its graphs, and the committed figures were recorded by
	// `graphbench bench <suite>` runs that build a single suite.
	// Building all suites up front would measure every entry against a
	// much larger live heap than its reference was recorded with, which
	// shows up as phantom GC-pressure regressions on the smallest
	// entries.
	suite := map[string]Bench{}
	next := 0
	resolve := func(name string) (Bench, bool) {
		for {
			if bm, ok := suite[name]; ok {
				return bm, true
			}
			if next == len(Registry) {
				return Bench{}, false
			}
			for _, bm := range Registry[next].Build() {
				suite[bm.Name] = bm
			}
			next++
		}
	}

	var out []CheckResult
	for _, path := range paths {
		bl, err := Load(path)
		if err != nil {
			return nil, err
		}
		if len(bl.Benchmarks) == 0 {
			return nil, fmt.Errorf("perf: baseline %s has no benchmarks", path)
		}
		// Recompute the snapshot keys the baseline recorded: entries
		// whose dataset was regenerated differently since (generator or
		// binary-format bump) were measured against a different graph,
		// so comparing against them is meaningless. Skip them with the
		// reason, before any suite is built. Baselines without recorded
		// keys (pre-dating the field) are checked unconditionally.
		stale := make(map[string]bool)
		for ds, key := range bl.DatasetKeys {
			if datagen.SnapshotKey(ds, bl.Scale, bl.Seed) != key {
				stale[ds] = true
			}
		}
		names := make([]string, 0, len(bl.Benchmarks))
		for n := range bl.Benchmarks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			if ds := staleDataset(name, stale); ds != "" {
				out = append(out, CheckResult{
					Name: name, File: path, Skipped: true,
					Reason: fmt.Sprintf("dataset snapshot key for %s is stale (graph regenerated differently since the baseline)", ds),
				})
				continue
			}
			ref := reference(bl.Benchmarks[name])
			bm, ok := resolve(name)
			if !ok || ref == nil {
				reason := "no measurable target in the current suites"
				if ref == nil {
					reason = "no committed measurement"
				}
				out = append(out, CheckResult{
					Name: name, File: path, Skipped: true, Reason: reason,
				})
				continue
			}
			live := MeasureSuite([]Bench{bm})[name]
			c := CheckResult{
				Name: name, File: path,
				RefNs: ref.NsPerOp, RefAllocs: ref.AllocsPerOp,
				GotNs: live.NsPerOp, GotAllocs: live.AllocsPerOp,
			}
			c.compare()
			out = append(out, c)
		}
	}
	return out, nil
}

// staleDataset returns the first stale dataset a benchmark entry
// names, or "" when the entry's datasets all have current keys.
func staleDataset(entry string, stale map[string]bool) string {
	if len(stale) == 0 {
		return ""
	}
	for _, ds := range entryDatasets(entry) {
		if stale[ds] {
			return ds
		}
	}
	return ""
}

// RenderCheck formats the comparison as an aligned table and reports
// whether any entry regressed.
func RenderCheck(results []CheckResult) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %12s %12s %11s %11s  %s\n",
		"benchmark", "ref ns/op", "got ns/op", "ref allocs", "got allocs", "verdict")
	failed := false
	for _, c := range results {
		if c.Skipped {
			fmt.Fprintf(&b, "%-36s %12s %12s %11s %11s  skipped (%s)\n",
				c.Name, "-", "-", "-", "-", c.Reason)
			continue
		}
		// Passing entries print their measured-vs-baseline ratios too,
		// so a CI log is auditable (how close to the line was this
		// run?) without flipping any entry red.
		verdict := fmt.Sprintf("ok (ns %.2fx, allocs %.2fx)",
			ratio(c.GotNs, c.RefNs), ratio(float64(c.GotAllocs), float64(c.RefAllocs)))
		if c.Regressed {
			failed = true
			verdict = "REGRESSED (" + c.Reason + ")"
		}
		fmt.Fprintf(&b, "%-36s %12.0f %12.0f %11d %11d  %s\n",
			c.Name, c.RefNs, c.GotNs, c.RefAllocs, c.GotAllocs, verdict)
	}
	fmt.Fprintf(&b, "tolerance: +%.0f%% on ns/op and allocs/op\n", Tolerance*100)
	return b.String(), failed
}
