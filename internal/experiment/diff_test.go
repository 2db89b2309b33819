package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// diffBundle builds a minimal two-cell Results for diff tests.
func diffBundle() *Results {
	cell := func(p, alg, ds, status, validation string, sim, cv float64) CellResult {
		return CellResult{
			Cell:       Cell{Platform: p, Algorithm: alg, Dataset: ds},
			Status:     status,
			Validation: validation,
			Legs: []LegResult{
				{Leg: "warm", SimSeconds: sim, Wall: metrics.Stats{N: 3, Mean: 10, CV: cv}},
			},
		}
	}
	return &Results{
		SchemaVersion: 1,
		Fingerprint: Fingerprint{
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
			DatasetKeys: map[string]string{"KGS": "kgs-aaa", "Citation": "cit-aaa"},
		},
		Cells: []CellResult{
			cell("Giraph", "BFS", "KGS", "ok", Valid, 100, 0.05),
			cell("Giraph", "BFS", "Citation", "ok", Valid, 200, 0.02),
		},
	}
}

func TestDiffResultsQuiet(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	// A 3% move under a 5% recorded CV is noise.
	b.Cells[0].Legs[0].SimSeconds = 103
	rep := DiffResults(a, b)
	if rep.Flagged() {
		t.Fatalf("move within recorded CV flagged:\n%s", rep)
	}
	if rep.Compared != 2 {
		t.Fatalf("compared %d legs, want 2", rep.Compared)
	}
	if !strings.Contains(rep.String(), "no differences") {
		t.Fatalf("quiet diff should say so:\n%s", rep)
	}
}

func TestDiffResultsFlagsSimMove(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	// Citation recorded 2% CV; a 10% move is a real regression.
	b.Cells[1].Legs[0].SimSeconds = 220
	rep := DiffResults(a, b)
	if !rep.Flagged() {
		t.Fatalf("10%% move over 2%% CV not flagged:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "sim-seconds") || !strings.Contains(rep.String(), "Citation") {
		t.Fatalf("flag should name the cell and kind:\n%s", rep)
	}
	// The allowance is the larger of the two CVs: if the candidate
	// recorded 15% CV, the same move is indistinguishable from noise.
	b.Cells[1].Legs[0].Wall.CV = 0.15
	if rep := DiffResults(a, b); rep.Flagged() {
		t.Fatalf("move within candidate CV flagged:\n%s", rep)
	}
}

func TestDiffResultsFlagsStatusAndValidation(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	b.Cells[0].Status = "crash"
	b.Cells[0].Validation = Skipped
	rep := DiffResults(a, b)
	if !rep.Flagged() {
		t.Fatalf("status flip not flagged:\n%s", rep)
	}
	var kinds []string
	for _, e := range rep.Entries {
		if e.Flagged {
			kinds = append(kinds, e.Kind)
		}
	}
	got := strings.Join(kinds, ",")
	if !strings.Contains(got, "status") || !strings.Contains(got, "validation") {
		t.Fatalf("flagged kinds %q, want status and validation", got)
	}
}

func TestDiffResultsDatasetDrift(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	// KGS was regenerated differently AND its timing moved: the move
	// must be reported as incomparable, not flagged.
	b.Fingerprint.DatasetKeys["KGS"] = "kgs-bbb"
	b.Cells[0].Legs[0].SimSeconds = 400
	rep := DiffResults(a, b)
	if rep.Flagged() {
		t.Fatalf("drifted dataset's timing move flagged:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "not comparable") {
		t.Fatalf("drift should be reported:\n%s", rep)
	}
}

func TestDiffResultsMissingCells(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	b.Cells = b.Cells[:1] // Citation disappeared
	rep := DiffResults(a, b)
	if !rep.Flagged() {
		t.Fatalf("disappeared cell not flagged:\n%s", rep)
	}
	// New cells in the candidate are informational only.
	a2, b2 := diffBundle(), diffBundle()
	b2.Cells = append(b2.Cells, CellResult{
		Cell: Cell{Platform: "Neo4j", Algorithm: "BFS", Dataset: "KGS"}, Status: "ok", Validation: Valid,
	})
	if rep := DiffResults(a2, b2); rep.Flagged() {
		t.Fatalf("new cell flagged:\n%s", rep)
	}
}

func TestDiffResultsFingerprintNote(t *testing.T) {
	a, b := diffBundle(), diffBundle()
	b.Fingerprint.GoVersion = "go1.23"
	rep := DiffResults(a, b)
	if rep.Flagged() {
		t.Fatalf("toolchain change flagged:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "go1.22 -> go1.23") {
		t.Fatalf("toolchain change not noted:\n%s", rep)
	}
}

func TestLoadResultsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	data, err := json.Marshal(diffBundle())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("loaded %d cells, want 2", len(res.Cells))
	}
	if _, err := LoadResults(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema_version":0}`), 0o644)
	if _, err := LoadResults(bad); err == nil {
		t.Fatal("non-bundle accepted")
	}
}
