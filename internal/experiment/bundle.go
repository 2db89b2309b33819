package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// Results is the complete outcome of one spec execution: every
// repetition of every cell plus the environment fingerprint, i.e. the
// full content of a report bundle's results.json.
type Results struct {
	SchemaVersion int          `json:"schema_version"`
	Spec          Spec         `json:"spec"`
	Fingerprint   Fingerprint  `json:"fingerprint"`
	Cells         []CellResult `json:"cells"`

	TotalCells   int `json:"total_cells"`
	ValidCells   int `json:"valid_cells"`
	InvalidCells int `json:"invalid_cells"`
	SkippedCells int `json:"skipped_cells"`
	// CVBreaches counts legs whose wall-clock CV exceeded the spec's
	// cv_ceiling (0 when the gate is disabled); MaxCV is the worst
	// observed leg CV either way.
	CVBreaches int     `json:"cv_breaches"`
	MaxCV      float64 `json:"max_cv"`
}

// summarize fills the aggregate counters from the cells.
func (r *Results) summarize() {
	r.TotalCells = len(r.Cells)
	r.ValidCells, r.InvalidCells, r.SkippedCells, r.CVBreaches = 0, 0, 0, 0
	r.MaxCV = 0
	for i := range r.Cells {
		c := &r.Cells[i]
		switch c.Validation {
		case Valid:
			r.ValidCells++
		case Invalid:
			r.InvalidCells++
		default:
			r.SkippedCells++
		}
		for _, l := range c.Legs {
			if l.Wall.N >= 2 {
				if l.Wall.CV > r.MaxCV {
					r.MaxCV = l.Wall.CV
				}
				if r.Spec.CVCeiling > 0 && l.Wall.CV > r.Spec.CVCeiling {
					r.CVBreaches++
				}
			}
		}
	}
}

// Failed reports whether the bundle must exit non-zero: any INVALID
// cell, or any leg over the CV ceiling.
func (r *Results) Failed() bool { return r.InvalidCells > 0 || r.CVBreaches > 0 }

// Summary is a one-line human verdict.
func (r *Results) Summary() string {
	s := fmt.Sprintf("experiment %s: %d cells, %d valid, %d invalid, %d skipped, max CV %.1f%%",
		r.Spec.Name, r.TotalCells, r.ValidCells, r.InvalidCells, r.SkippedCells, 100*r.MaxCV)
	if r.Spec.CVCeiling > 0 {
		s += fmt.Sprintf(", %d over the %.0f%% CV ceiling", r.CVBreaches, 100*r.Spec.CVCeiling)
	}
	return s
}

// Table renders the paper-style per-leg result table: one row per
// cell×leg with the projected job time, wall-clock dispersion
// statistics, outlier flags, and the validation verdict.
func (r *Results) Table() bench.Table {
	t := bench.Table{
		Title: fmt.Sprintf("Experiment %q: per-cell repetition statistics", r.Spec.Name),
		Header: []string{"Platform", "Algorithm", "Dataset", "Placement", "Leg",
			"Status", "T(sim)", "Wall mean", "Wall CV", "Outliers", "Validation"},
	}
	for _, c := range r.Cells {
		for _, l := range c.Legs {
			cv := "-"
			if l.Wall.N >= 2 {
				cv = fmt.Sprintf("%.1f%%", 100*l.Wall.CV)
				if r.Spec.CVCeiling > 0 && l.Wall.CV > r.Spec.CVCeiling {
					cv += "!"
				}
			}
			t.Rows = append(t.Rows, []string{
				c.Platform, c.Algorithm, c.Dataset, c.Placement.String(), l.Leg,
				l.Status, fmtSimSeconds(l.SimSeconds, l.Status),
				fmt.Sprintf("%.2f ms", l.Wall.Mean), cv,
				strconv.Itoa(len(l.Wall.Outliers)),
				c.Validation,
			})
		}
		if len(c.Legs) == 0 {
			t.Rows = append(t.Rows, []string{
				c.Platform, c.Algorithm, c.Dataset, c.Placement.String(), "-",
				c.Status, "-", "-", "-", "-", c.Validation,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d repetitions per warm leg (after one untimed priming run), %d cold",
			r.Spec.Repetitions, r.Spec.ColdRepetitions),
		"wall CV/outliers measure this harness's dispersion; T(sim) is the paper-scale projection",
	)
	if r.Spec.CVCeiling > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("\"!\" marks legs over the %.0f%% CV sanity ceiling", 100*r.Spec.CVCeiling))
	}
	for _, c := range r.Cells {
		if c.Validation == Invalid {
			t.Notes = append(t.Notes, fmt.Sprintf("INVALID %s: %s", c.Cell, c.ValidationDetail))
		}
	}
	return t
}

// FigureData renders the flat per-leg data table figure pipelines
// consume via CSV: one row per cell×leg with the raw statistics as
// plain numbers.
func (r *Results) FigureData() bench.Table {
	t := bench.Table{
		Title: fmt.Sprintf("Experiment %q: figure data", r.Spec.Name),
		Header: []string{"platform", "algorithm", "dataset", "placement", "leg", "status",
			"sim_seconds", "eps", "n", "wall_mean_ms", "wall_median_ms",
			"wall_min_ms", "wall_max_ms", "wall_stddev_ms", "wall_cv", "outliers", "validation"},
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, c := range r.Cells {
		for _, l := range c.Legs {
			t.Rows = append(t.Rows, []string{
				c.Platform, c.Algorithm, c.Dataset, c.Placement.String(), l.Leg, l.Status,
				f(l.SimSeconds), f(l.EPS), strconv.Itoa(l.Wall.N),
				f(l.Wall.Mean), f(l.Wall.Median), f(l.Wall.Min), f(l.Wall.Max),
				f(l.Wall.StdDev), f(l.Wall.CV), strconv.Itoa(len(l.Wall.Outliers)),
				c.Validation,
			})
		}
	}
	return t
}

func fmtSimSeconds(s float64, status string) string {
	switch status {
	case "ok":
		return fmt.Sprintf("%.1f s", s)
	case "timeout":
		return fmt.Sprintf(">%.0f s", s)
	default:
		return "-"
	}
}

// WriteBundle writes the self-contained report bundle into dir
// (created if needed): results.json (everything, machine-readable),
// tables.txt (the paper-style table), tables.csv and figure-data.csv
// (renderer CSV), and fingerprint.json (the environment record alone,
// for quick diffing between bundles).
func (r *Results) WriteBundle(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		return os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}
	resJSON, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := write("results.json", append(resJSON, '\n')); err != nil {
		return err
	}
	fpJSON, err := json.MarshalIndent(r.Fingerprint, "", "  ")
	if err != nil {
		return err
	}
	if err := write("fingerprint.json", append(fpJSON, '\n')); err != nil {
		return err
	}
	table := r.Table()
	text := table.String() + "\n" + r.Summary() + "\n"
	if err := write("tables.txt", []byte(text)); err != nil {
		return err
	}
	if err := write("tables.csv", []byte(bench.CSV(table))); err != nil {
		return err
	}
	return write("figure-data.csv", []byte(bench.CSV(r.FigureData())))
}

// DefaultBundleDir derives the bundle directory from the spec name.
func DefaultBundleDir(spec *Spec) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, spec.Name)
	return "experiment-" + name
}
