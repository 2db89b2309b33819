package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// Validation verdicts. A cell is VALID only when the repetitions of
// each leg agree on one outcome class, every repetition that completed
// OK produced byte-identical output, and that output satisfies the
// algorithm's reference-equivalence rules; INVALID poisons the bundle
// exit code. The legs may differ from each other — a cold leg that
// times out beside a warm leg that completes is the paper's own
// cold/hot split (Key finding 5), reported per leg. Cells no leg of
// which completed — the paper reports plenty of crash/timeout/n-a —
// are SKIPPED: there is no output to validate and the (deterministic)
// failure class itself is the result.
const (
	Valid   = "VALID"
	Invalid = "INVALID"
	Skipped = "SKIPPED"
)

// Leg names. The warm leg measures repetitions against resident data
// after an untimed priming pass; the cold leg regenerates the dataset
// outside every cache and skips the engines' warm-up passes, the
// graphdb cold/hot-cache split generalised to all engines.
const (
	LegCold = "cold"
	LegWarm = "warm"
)

// Driver executes one spec and produces the report bundle.
type Driver struct {
	Spec Spec
	// CacheDir feeds the warm leg's dataset snapshot cache (cold runs
	// never touch it). Empty disables.
	CacheDir string
	// Log, when non-nil, receives one progress line per cell.
	Log io.Writer

	// corrupt, when set (tests only), rewrites a repetition's result
	// before the driver looks at it — the injected-wrong-output and
	// injected-status-flip paths that prove the INVALID gate trips.
	corrupt func(Cell, *platform.Result)
}

// RepResult is one raw repetition.
type RepResult struct {
	// WallMs is the measured wall-clock time of the repetition in
	// milliseconds (the dispersion statistics run over this). Cold
	// repetitions include dataset regeneration, as a fresh process
	// would pay it.
	WallMs float64 `json:"wall_ms"`
	// SimSeconds is the cost model's projected paper-scale job time T
	// (deterministic: repetitions of one leg must agree exactly).
	SimSeconds float64 `json:"sim_seconds"`
	Status     string  `json:"status"`
	// Outlier flags repetitions outside the leg's 1.5×IQR Tukey
	// fences.
	Outlier bool `json:"outlier,omitempty"`
}

// LegResult is one cold or warm row of a cell.
type LegResult struct {
	Leg  string      `json:"leg"`
	Reps []RepResult `json:"reps"`
	// Status is the outcome class (ok/crash/timeout/n-a) the leg's
	// repetitions agree on; StatusDetail the failure reason when not OK.
	Status       string `json:"status"`
	StatusDetail string `json:"status_detail,omitempty"`
	// Wall summarises the repetitions' wall-clock milliseconds.
	Wall metrics.Stats `json:"wall_ms_stats"`
	// SimSeconds and EPS are the (deterministic) projected job time
	// and paper-scale throughput of the leg's runs.
	SimSeconds float64 `json:"sim_seconds"`
	EPS        float64 `json:"eps"`
	Iterations int     `json:"iterations,omitempty"`
}

// CellResult is one matrix cell: its per-leg repetition rows plus the
// cell-wide validation verdict.
type CellResult struct {
	Cell
	// Status is the cell's outcome class (ok/crash/timeout/n-a): that
	// of the warm leg when one ran, else the cold leg's. The legs carry
	// their own.
	Status string `json:"status"`
	// StatusDetail carries the failure reason for non-OK cells.
	StatusDetail     string      `json:"status_detail,omitempty"`
	Validation       string      `json:"validation"`
	ValidationDetail string      `json:"validation_detail,omitempty"`
	Legs             []LegResult `json:"legs"`
}

// Run expands and executes the spec's run matrix. The returned
// Results carry every repetition; persisting them is WriteBundle.
// Spec problems surface as *SpecError before anything runs.
func (d *Driver) Run() (*Results, error) {
	spec := d.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hw := cluster.DAS4(spec.Nodes, spec.Cores)
	h := bench.New(bench.Config{Seed: spec.Seed, Scale: spec.Scale, CacheDir: d.CacheDir})
	// Generate every dataset up front: the warm legs must start warm,
	// and the validator needs the same graphs.
	for _, ds := range spec.Datasets {
		h.Graph(ds)
	}
	v := newValidator(h, spec.Seed)

	res := &Results{SchemaVersion: 1, Spec: spec, Fingerprint: Collect(&spec)}
	cells := spec.Cells()
	for i, c := range cells {
		cr := d.runCell(h, v, c, hw)
		res.Cells = append(res.Cells, cr)
		if d.Log != nil {
			fmt.Fprintf(d.Log, "experiment %s: cell %d/%d %s: %s",
				spec.Name, i+1, len(cells), c, cr.Validation)
			if cr.Validation == Skipped {
				fmt.Fprintf(d.Log, " (%s)", cr.Status)
			}
			if len(cr.Legs) > 0 {
				last := cr.Legs[len(cr.Legs)-1]
				fmt.Fprintf(d.Log, " wall=%.2fms cv=%.1f%%", last.Wall.Mean, 100*last.Wall.CV)
			}
			fmt.Fprintln(d.Log)
		}
	}
	res.summarize()
	return res, nil
}

// leg describes one measurement leg of a cell.
type leg struct {
	name  string
	cold  bool
	reps  int
	prime bool
}

func (d *Driver) runCell(h *bench.Harness, v *validator, c Cell, hw cluster.Hardware) CellResult {
	cr := CellResult{Cell: c, Validation: Valid}
	legs := []leg{
		{name: LegCold, cold: true, reps: d.Spec.ColdRepetitions},
		{name: LegWarm, cold: false, reps: d.Spec.Repetitions, prime: true},
	}

	invalid := func(format string, args ...any) {
		cr.Validation = Invalid
		if cr.ValidationDetail == "" {
			cr.ValidationDetail = fmt.Sprintf(format, args...)
		}
	}

	var firstOut any
	haveOut := false
	for _, l := range legs {
		if l.reps <= 0 {
			continue
		}
		lr := LegResult{Leg: l.name}
		if l.prime {
			if _, err := d.runOnce(h, c, hw, l.cold); err != nil {
				invalid("priming run failed: %v", err)
				continue
			}
		}
		walls := make([]float64, 0, l.reps)
		for i := 0; i < l.reps; i++ {
			start := time.Now()
			r, err := d.runOnce(h, c, hw, l.cold)
			wall := float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				invalid("repetition failed to execute: %v", err)
				continue
			}
			if d.corrupt != nil {
				d.corrupt(c, r)
			}
			rep := RepResult{WallMs: wall, SimSeconds: r.Seconds, Status: r.Status.String()}
			walls = append(walls, wall)
			lr.Reps = append(lr.Reps, rep)
			if lr.SimSeconds == 0 {
				lr.SimSeconds, lr.EPS, lr.Iterations = r.Seconds, r.EPS(), r.Iterations
			} else if r.Status.String() == platform.OK.String() && r.Seconds != lr.SimSeconds {
				invalid("%s leg: nondeterministic simulated time (%.3f vs %.3f s)",
					l.name, r.Seconds, lr.SimSeconds)
			}

			// Status consensus within the leg; legs may differ.
			if lr.Status == "" {
				lr.Status = r.Status.String()
				if r.Err != nil {
					lr.StatusDetail = r.Err.Error()
				}
			} else if r.Status.String() != lr.Status {
				invalid("%s leg: status diverged across repetitions (%s vs %s)", l.name, r.Status, lr.Status)
			}

			if r.Status != platform.OK {
				continue
			}
			if !haveOut {
				firstOut, haveOut = r.Output, true
				if err := v.check(c, firstOut); err != nil {
					invalid("output fails reference validation: %v", err)
				}
			} else if !outputsEqual(r.Output, firstOut) {
				invalid("nondeterministic output across repetitions (%s leg, rep %d)", l.name, i+1)
			}
		}
		st := metrics.Summarize(walls)
		for _, oi := range st.Outliers {
			lr.Reps[oi].Outlier = true
		}
		lr.Wall = st
		cr.Legs = append(cr.Legs, lr)
		// Legs run cold then warm, so the warm leg's status wins.
		cr.Status, cr.StatusDetail = lr.Status, lr.StatusDetail
	}

	// A cell no repetition of which completed carries no validatable
	// output; the deterministic failure class is the result (unless
	// something already flagged the cell INVALID).
	if cr.Validation == Valid && !haveOut {
		cr.Validation = Skipped
		if cr.ValidationDetail == "" {
			cr.ValidationDetail = "no output to validate: run " + cr.Status
		}
	}
	return cr
}

// runOnce executes one repetition through the harness, bypassing its
// result cache. A cold repetition runs on a harness of its own with no
// snapshot cache: nothing is resident, so the dataset is regenerated
// inside the repetition, as a first-ever execution on the cluster
// would pay it.
func (d *Driver) runOnce(h *bench.Harness, c Cell, hw cluster.Hardware, cold bool) (*platform.Result, error) {
	if cold {
		h = bench.New(bench.Config{Seed: d.Spec.Seed, Scale: d.Spec.Scale})
	}
	return h.RunFresh(bench.FreshRun{
		Platform: c.Platform, Algorithm: c.Algorithm, Dataset: c.Dataset,
		HW: hw, Partitioner: c.Partitioner, Shards: c.Shards, Cold: cold,
	})
}
