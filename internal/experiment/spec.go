// Package experiment is the declarative experiment-spec driver: a
// JSON spec selects algorithm × dataset × platform × placement and a
// repetition count, and the driver executes the expanded run matrix n
// times per cell with a separated cold leg, computes per-cell
// dispersion statistics (mean/median/CV, IQR outlier flags — see
// internal/metrics), validates every cell's output against the
// internal/algo sequential references (Graphalytics-style equivalence
// rules), and emits a self-contained report bundle: results.json with
// the per-repetition raw data, paper-style tables and figure data
// rendered with the internal/bench renderers, and an environment
// fingerprint. A cell that fails validation reports INVALID and
// poisons the bundle exit code, so no unvalidated number can ship —
// the methodology hardening "SoK: The Faults in our Graph Benchmarks"
// asks of single-shot, unvalidated benchmark suites.
package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/platform"
)

// Placement pins one explicit partitioning for the run matrix. The
// zero value keeps every engine's historical default layout.
type Placement struct {
	// Partitioner is one of internal/partition's strategy names
	// ("hash", "range", "edgecut", "vertexcut", "grid"), or empty for
	// the default layout.
	Partitioner string `json:"partitioner"`
	// Shards is the shard count; 0 defaults to the cluster node count
	// when Partitioner is set.
	Shards int `json:"shards"`
}

func (p Placement) String() string {
	if p.Partitioner == "" && p.Shards == 0 {
		return "default"
	}
	s := p.Partitioner
	if s == "" {
		s = partition.Hash
	}
	return fmt.Sprintf("%s/p%d", s, p.Shards)
}

// Spec is one declarative experiment: the cross product of its
// dimension lists is the run matrix. Unknown JSON keys are rejected so
// a typo'd dimension can never be silently ignored.
type Spec struct {
	// Name identifies the experiment; the default bundle directory is
	// derived from it.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Platforms, Algorithms, and Datasets are the matrix dimensions;
	// every entry must resolve (platform.ByName, the algorithm
	// registry, datagen.ByName).
	Platforms  []string `json:"platforms"`
	Algorithms []string `json:"algorithms"`
	Datasets   []string `json:"datasets"`
	// Placements optionally adds a partitioner/shards dimension; empty
	// runs each engine's default layout only.
	Placements []Placement `json:"placements,omitempty"`

	// Repetitions is the warm-leg repetition count (n ≥ 1). The warm
	// leg runs one untimed priming pass first, so every timed
	// repetition sees resident data and hot caches.
	Repetitions int `json:"repetitions"`
	// ColdRepetitions is the cold-leg repetition count; each cold run
	// regenerates the dataset outside every cache and skips the
	// engines' warm-up passes. Defaults to 1 when absent; 0 disables
	// the cold leg.
	ColdRepetitions int `json:"cold_repetitions"`

	// Scale extra-divides every dataset (as graphbench -scale); Seed
	// drives generation and algorithm randomness; Nodes/Cores pick the
	// simulated cluster. Defaults: 1 / 42 / 20 / 1.
	Scale int   `json:"scale"`
	Seed  int64 `json:"seed"`
	Nodes int   `json:"nodes"`
	Cores int   `json:"cores"`

	// CVCeiling, when positive, is the sanity ceiling on every leg's
	// wall-clock coefficient of variation: a leg above it counts as a
	// CV breach and poisons the bundle exit code. Zero disables the
	// gate (dispersion is still reported).
	CVCeiling float64 `json:"cv_ceiling"`
}

// SpecError is the typed spec-validation error: which file, which
// field, and why.
type SpecError struct {
	File  string // spec path, empty for in-memory specs
	Field string // offending field, when attributable
	Msg   string
}

func (e *SpecError) Error() string {
	var b strings.Builder
	b.WriteString("experiment spec")
	if e.File != "" {
		fmt.Fprintf(&b, " %s", e.File)
	}
	if e.Field != "" {
		fmt.Fprintf(&b, ": field %q", e.Field)
	}
	fmt.Fprintf(&b, ": %s", e.Msg)
	return b.String()
}

// Cell is one point of the expanded run matrix.
type Cell struct {
	Platform  string `json:"platform"`
	Algorithm string `json:"algorithm"`
	Dataset   string `json:"dataset"`
	Placement
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s[%s]", c.Platform, c.Algorithm, c.Dataset, c.Placement)
}

// defaultSpec carries the values a spec file may omit. ColdRepetitions
// is pre-set to -1 so "absent" (→ default 1) is distinguishable from
// an explicit 0 (cold leg disabled).
func defaultSpec() Spec {
	return Spec{Scale: 1, Seed: 42, Nodes: 20, Cores: 1, ColdRepetitions: -1}
}

// Validate normalises defaults and checks every dimension of the
// cross product; the first problem is returned as a *SpecError.
func (s *Spec) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	if s.Name == "" {
		return bad("name", "must be non-empty (it names the report bundle)")
	}
	if s.ColdRepetitions < 0 {
		s.ColdRepetitions = 1
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	if s.Nodes < 1 {
		return bad("nodes", "cluster size %d must be >= 1", s.Nodes)
	}
	if s.Cores < 1 {
		return bad("cores", "cores per node %d must be >= 1", s.Cores)
	}
	if s.Repetitions < 1 {
		return bad("repetitions", "need at least one warm repetition, got %d", s.Repetitions)
	}
	if s.CVCeiling < 0 {
		return bad("cv_ceiling", "must be >= 0, got %v", s.CVCeiling)
	}
	if len(s.Platforms) == 0 {
		return bad("platforms", "empty dimension: the run matrix would be empty")
	}
	if len(s.Algorithms) == 0 {
		return bad("algorithms", "empty dimension: the run matrix would be empty")
	}
	if len(s.Datasets) == 0 {
		return bad("datasets", "empty dimension: the run matrix would be empty")
	}
	for _, p := range s.Platforms {
		if _, err := platform.ByName(p); err != nil {
			return bad("platforms", "%v", err)
		}
	}
	for _, a := range s.Algorithms {
		if !slices.Contains(platform.Algorithms(), a) {
			return bad("algorithms", "unknown algorithm %q (have %s)",
				a, strings.Join(platform.Algorithms(), " "))
		}
	}
	for _, d := range s.Datasets {
		if _, err := datagen.ByName(d); err != nil {
			return bad("datasets", "%v", err)
		}
	}
	for _, pl := range s.Placements {
		if pl.Partitioner != "" && !slices.Contains(partition.Names(), pl.Partitioner) {
			return bad("placements", "unknown partitioner %q (have %s)",
				pl.Partitioner, strings.Join(partition.Names(), " "))
		}
		if pl.Shards < 0 {
			return bad("placements", "shards %d must be >= 0", pl.Shards)
		}
	}
	return nil
}

// Cells expands the spec into its run matrix, platform-major in
// declaration order.
func (s *Spec) Cells() []Cell {
	placements := s.Placements
	if len(placements) == 0 {
		placements = []Placement{{}}
	}
	var cells []Cell
	for _, p := range s.Platforms {
		for _, a := range s.Algorithms {
			for _, d := range s.Datasets {
				for _, pl := range placements {
					cells = append(cells, Cell{Platform: p, Algorithm: a, Dataset: d, Placement: pl})
				}
			}
		}
	}
	return cells
}

// Load reads and validates one spec file. Unknown keys and malformed
// JSON surface as *SpecError carrying the path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := defaultSpec()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, &SpecError{File: path, Msg: err.Error()}
	}
	// Trailing garbage after the spec object is a malformed file, not
	// an extra experiment.
	if dec.More() {
		return nil, &SpecError{File: path, Msg: "trailing data after the spec object"}
	}
	if err := spec.Validate(); err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			se.File = path
		}
		return nil, err
	}
	return &spec, nil
}

// LoadAll loads a spec file, or every *.json spec in a directory
// (sorted by name).
func LoadAll(path string) ([]*Spec, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		s, err := Load(path)
		if err != nil {
			return nil, err
		}
		return []*Spec{s}, nil
	}
	paths, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiment: no *.json specs in %s", path)
	}
	specs := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}
