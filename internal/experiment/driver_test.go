package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/platform"
)

// testSpec is a small but real matrix: one engine, two algorithms,
// one dataset at heavy down-scaling, 2 warm + 1 cold repetitions.
func testSpec() Spec {
	s := defaultSpec()
	s.Name = "unit"
	s.Platforms = []string{"Giraph"}
	s.Algorithms = []string{"BFS", "CONN"}
	s.Datasets = []string{"DotaLeague"}
	s.Repetitions = 2
	s.ColdRepetitions = 1
	s.Scale = 80
	s.Nodes = 4
	return s
}

func TestDriverRunsAndValidates(t *testing.T) {
	d := &Driver{Spec: testSpec()}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 2 || res.ValidCells != 2 || res.InvalidCells != 0 {
		t.Fatalf("cells: total=%d valid=%d invalid=%d", res.TotalCells, res.ValidCells, res.InvalidCells)
	}
	if res.Failed() {
		t.Fatalf("clean run reported failure: %s", res.Summary())
	}
	for _, c := range res.Cells {
		if c.Validation != Valid {
			t.Errorf("%s: validation %s (%s)", c.Cell, c.Validation, c.ValidationDetail)
		}
		if len(c.Legs) != 2 || c.Legs[0].Leg != LegCold || c.Legs[1].Leg != LegWarm {
			t.Fatalf("%s: legs = %+v, want cold then warm", c.Cell, c.Legs)
		}
		if n := c.Legs[0].Wall.N; n != 1 {
			t.Errorf("%s: cold reps = %d, want 1", c.Cell, n)
		}
		if n := c.Legs[1].Wall.N; n != 2 {
			t.Errorf("%s: warm reps = %d, want 2", c.Cell, n)
		}
		for _, l := range c.Legs {
			if l.SimSeconds <= 0 {
				t.Errorf("%s/%s: sim seconds %v", c.Cell, l.Leg, l.SimSeconds)
			}
			for _, rep := range l.Reps {
				if rep.WallMs < 0 || rep.SimSeconds != l.SimSeconds {
					t.Errorf("%s/%s: rep %+v inconsistent with leg", c.Cell, l.Leg, rep)
				}
			}
		}
	}
}

func TestDriverWriteBundle(t *testing.T) {
	spec := testSpec()
	spec.Algorithms = []string{"BFS"}
	d := &Driver{Spec: spec}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"results.json", "tables.txt", "tables.csv", "figure-data.csv", "fingerprint.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("results.json does not parse: %v", err)
	}
	if back.TotalCells != res.TotalCells || back.Spec.Name != "unit" {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Fingerprint.GoVersion == "" || len(back.Fingerprint.DatasetKeys) == 0 {
		t.Errorf("fingerprint incomplete: %+v", back.Fingerprint)
	}
}

// TestCorruptOutputsTurnInvalid injects a wrong output into each
// algorithm's cell and asserts the validation gate trips and the
// bundle exit code goes non-zero.
func TestCorruptOutputsTurnInvalid(t *testing.T) {
	corruptions := map[string]func(any) any{
		"BFS": func(out any) any {
			r := out.(algo.BFSResult)
			levels := append([]int32(nil), r.Levels...)
			// Bump the first reached non-source level: the parent/level
			// certificate must reject it.
			for i, l := range levels {
				if l > 0 {
					levels[i] = l + 5
					break
				}
			}
			r.Levels = levels
			return r
		},
		"CONN": func(out any) any {
			r := out.(algo.ConnResult)
			r.Components++
			return r
		},
		"STATS": func(out any) any {
			r := out.(algo.StatsResult)
			r.AvgLCC += 0.5
			return r
		},
	}
	for alg, corrupt := range corruptions {
		t.Run(alg, func(t *testing.T) {
			spec := testSpec()
			spec.Algorithms = []string{alg}
			spec.ColdRepetitions = 0
			spec.Repetitions = 1
			d := &Driver{Spec: spec, corrupt: func(_ Cell, r *platform.Result) { r.Output = corrupt(r.Output) }}
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.InvalidCells != 1 {
				t.Fatalf("invalid cells = %d, want 1 (%s)", res.InvalidCells, res.Summary())
			}
			c := res.Cells[0]
			if c.Validation != Invalid || c.ValidationDetail == "" {
				t.Errorf("cell = %s (%q), want INVALID with detail", c.Validation, c.ValidationDetail)
			}
			if !res.Failed() {
				t.Error("corrupted bundle must exit non-zero")
			}
		})
	}
}

// TestNondeterminismAcrossRepsTurnsInvalid flips the output on the
// second repetition only: the cross-repetition determinism check must
// catch it even though each individual output would validate.
func TestNondeterminismAcrossRepsTurnsInvalid(t *testing.T) {
	spec := testSpec()
	spec.Algorithms = []string{"CONN"}
	spec.ColdRepetitions = 0
	spec.Repetitions = 2
	n := 0
	d := &Driver{Spec: spec, corrupt: func(_ Cell, res *platform.Result) {
		n++
		if n < 2 {
			return
		}
		r := res.Output.(algo.ConnResult)
		labels := append([]graph.VertexID(nil), r.Labels...)
		if len(labels) > 0 {
			labels[0]++
		}
		r.Labels = labels
		res.Output = r
	}}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidCells != 1 || !res.Failed() {
		t.Fatalf("want 1 invalid cell, got %s", res.Summary())
	}
}

// coldHotSpec is the one-cell spec of the paper's cold/hot split (Key
// finding 5): at scale 8 Neo4j STATS on WikiTalk exceeds the 20 h
// budget from a cold cache and completes from a warm one.
func coldHotSpec() Spec {
	s := defaultSpec()
	s.Name = "cold-hot"
	s.Platforms = []string{"Neo4j"}
	s.Algorithms = []string{"STATS"}
	s.Datasets = []string{"WikiTalk"}
	s.Repetitions = 1
	s.ColdRepetitions = 1
	s.Scale = 8
	return s
}

// TestColdTimeoutWarmOKIsValid: legs that disagree with each other are
// a result, not a fault. Both statuses are reported, the cell takes the
// warm leg's, and the warm output is reference-validated.
func TestColdTimeoutWarmOKIsValid(t *testing.T) {
	res, err := (&Driver{Spec: coldHotSpec()}).Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Validation != Valid || res.Failed() {
		t.Fatalf("%s: %s (%s), want VALID", c.Cell, c.Validation, c.ValidationDetail)
	}
	if len(c.Legs) != 2 || c.Legs[0].Status != "timeout" || c.Legs[1].Status != "ok" {
		t.Fatalf("%s: legs = %+v, want cold timeout then warm ok", c.Cell, c.Legs)
	}
	if c.Legs[0].StatusDetail == "" || c.Status != "ok" || c.StatusDetail != "" {
		t.Errorf("%s: cell status %q (%q), cold detail %q; want the warm leg's status and the cold leg's reason",
			c.Cell, c.Status, c.StatusDetail, c.Legs[0].StatusDetail)
	}
	rows := res.Table().Rows
	if len(rows) != 2 || rows[0][5] != "timeout" || rows[1][5] != "ok" {
		t.Errorf("table rows = %v, want one status per leg", rows)
	}

	// The warm output still goes through the reference check.
	d := &Driver{Spec: coldHotSpec(), corrupt: func(_ Cell, r *platform.Result) {
		if out, ok := r.Output.(algo.StatsResult); ok {
			out.AvgLCC += 0.5
			r.Output = out
		}
	}}
	if res, err = d.Run(); err != nil {
		t.Fatal(err)
	}
	if c := res.Cells[0]; c.Validation != Invalid {
		t.Errorf("corrupted warm output: %s (%s), want INVALID", c.Validation, c.ValidationDetail)
	}
}

// TestStatusDivergenceWithinLegTurnsInvalid: repetitions of one leg
// must agree on the outcome class.
func TestStatusDivergenceWithinLegTurnsInvalid(t *testing.T) {
	spec := coldHotSpec()
	spec.ColdRepetitions = 0
	spec.Repetitions = 2
	n := 0
	d := &Driver{Spec: spec, corrupt: func(_ Cell, r *platform.Result) {
		if n++; n == 2 {
			r.Status = platform.Timeout
		}
	}}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Validation != Invalid || !strings.Contains(c.ValidationDetail, "warm leg: status diverged") || !res.Failed() {
		t.Fatalf("%s: %s (%q), want INVALID for a leg whose repetitions disagree", c.Cell, c.Validation, c.ValidationDetail)
	}
}

func TestCVCeilingBreachFailsBundle(t *testing.T) {
	spec := testSpec()
	spec.Algorithms = []string{"BFS"}
	spec.ColdRepetitions = 0
	// Impossibly low ceiling: any nonzero dispersion across the two
	// warm repetitions breaches it.
	spec.CVCeiling = 1e-12
	d := &Driver{Spec: spec}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidCells != 0 {
		t.Fatalf("validation should still pass: %s", res.Summary())
	}
	if res.CVBreaches == 0 || !res.Failed() {
		t.Fatalf("CV ceiling breach not detected: %s", res.Summary())
	}
}

func TestDriverRejectsBadSpec(t *testing.T) {
	spec := testSpec()
	spec.Platforms = []string{"nope"}
	if _, err := (&Driver{Spec: spec}).Run(); err == nil {
		t.Fatal("driver ran a spec with an unknown platform")
	}
}
