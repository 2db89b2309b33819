// Package perf records the repository's tracked micro and macro
// figures: a fixed set of benchmarks over the engines and the graph
// core, measured with testing.Benchmark (ns/op, B/op, allocs/op, plus
// simulated DAS-4 seconds for the macro entries) and serialised to a
// committed BENCH_*.json file by `graphbench bench <suite>
// <before|after>`.
//
// It records; it does not gate. Speed across commits is compared by the
// claim benchmark (BENCHMARK.json + benchmark/), which runs parent and
// change side by side on one machine. The entries kept here are the
// ones a tier-1 ratio gate reads (TestGapBFSSpeedupGate,
// TestBatchSpeedupGate — ratios of figures recorded in one session, so
// machine-independent) and the ones no benchmark workload covers yet
// (triangles, pull PageRank, pinned placements, Friendster-scale
// ingest; see "Where the old BENCH_*.json entries went" in
// benchmark/README.md).
//
// The suite is intentionally fixed: same datasets, same scale, same
// seed, same hardware model. Do not edit existing entries when adding
// new ones — comparability across PRs is the point.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pregelalgo"
)

// BaselineScale and BaselineSeed pin the dataset generation so the
// suite is identical across machines and PRs (BaselineScale matches the
// default BENCH_SCALE of bench_test.go).
const (
	BaselineScale = 8
	BaselineSeed  = 42
)

// Metrics is one measured benchmark result.
type Metrics struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	// MBPerSec is the processing throughput for entries that declare a
	// per-op byte volume (the ingest suite), in MB/s.
	MBPerSec float64 `json:"mb_s,omitempty"`
	// SimSeconds is the simulated DAS-4 job time for macro entries
	// (zero for micro entries, where only the Go-level cost matters).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// BenchN is the b.N the figures were averaged over.
	BenchN int `json:"bench_n,omitempty"`
	// GCPauseNs is the total stop-the-world pause accumulated while the
	// benchmark ran (runtime.MemStats.PauseTotalNs delta).
	GCPauseNs uint64 `json:"gc_pause_ns,omitempty"`
	// PeakSysBytes is runtime.MemStats.Sys after the benchmark — the
	// process's high-water OS memory, the closest in-process RSS proxy.
	PeakSysBytes uint64 `json:"peak_sys_bytes,omitempty"`
}

// Record pairs the pre-PR and post-PR measurements of one benchmark.
type Record struct {
	Before *Metrics `json:"before,omitempty"`
	After  *Metrics `json:"after,omitempty"`
}

// Baseline is the serialised BENCH_*.json document.
type Baseline struct {
	Description string             `json:"description"`
	GoVersion   string             `json:"go_version"`
	GoMaxProcs  int                `json:"gomaxprocs,omitempty"`
	Scale       int                `json:"scale"`
	Seed        int64              `json:"seed"`
	Benchmarks  map[string]*Record `json:"benchmarks"`
}

// Bench is one fixed suite entry.
type Bench struct {
	Name string
	// Run is measured by testing.Benchmark, which records allocations
	// whether or not Run calls b.ReportAllocs.
	Run func(b *testing.B)
	// Bytes, when non-zero, is the input volume one op processes; it
	// turns ns/op into a MB/s throughput figure.
	Bytes int64
	// Sim, when non-nil, reports the simulated cluster seconds of one
	// run through the cost model.
	Sim func() float64
}

// CacheDir, when non-empty, makes dataset generation go through the
// binary snapshot cache (datagen.Profile.GenerateCached), so repeated
// suite runs skip regeneration. Set by cmd/graphbench from -cache.
var CacheDir string

func mustGraph(name string, scale int) *graph.Graph {
	p, err := datagen.ByName(name)
	if err != nil {
		panic(err)
	}
	return p.GenerateCached(scale, BaselineSeed, CacheDir)
}

// Suite returns the fixed benchmark set. The entry names are stable
// identifiers: BENCH_*.json keys and the acceptance thresholds of
// performance PRs refer to them.
func Suite() []Bench {
	hw := cluster.DAS4(20, 1)
	dota := mustGraph("DotaLeague", BaselineScale)
	dotaSrc := algo.PickSource(dota, BaselineSeed)

	return []Bench{
		{
			// The headline macro benchmark: Giraph-model BFS on the
			// DotaLeague-class dense graph (the paper's Figure 3 sweet
			// spot for Giraph). TestGapBFSSpeedupGate divides it by
			// gap-bfs-dotaleague.
			Name: "pregel-bfs-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := pregelalgo.BFS(dota, hw, dotaSrc, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				profile := &cluster.ExecutionProfile{}
				if _, _, err := pregelalgo.BFS(dota, hw, dotaSrc, 0, profile); err != nil {
					panic(err)
				}
				return cluster.GiraphCosts().Time(profile, hw).Total
			},
		},
		{
			Name: "graph-triangles-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = dota.Triangles()
				}
			},
		},
	}
}

// MeasureSuite runs an arbitrary benchmark set once.
func MeasureSuite(suite []Bench) map[string]*Metrics {
	out := make(map[string]*Metrics)
	for _, bm := range suite {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := testing.Benchmark(bm.Run)
		runtime.ReadMemStats(&after)
		m := &Metrics{
			NsPerOp:      float64(r.NsPerOp()),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			BenchN:       r.N,
			GCPauseNs:    after.PauseTotalNs - before.PauseTotalNs,
			PeakSysBytes: after.Sys,
		}
		if bm.Bytes > 0 && m.NsPerOp > 0 {
			m.MBPerSec = float64(bm.Bytes) / m.NsPerOp * 1e3
		}
		if bm.Sim != nil {
			m.SimSeconds = bm.Sim()
		}
		out[bm.Name] = m
	}
	return out
}

// Load reads an existing baseline file; a missing file yields an empty
// baseline ready to be filled.
func Load(path string) (*Baseline, error) {
	bl := &Baseline{
		GoVersion:  runtime.Version(),
		Scale:      BaselineScale,
		Seed:       BaselineSeed,
		Benchmarks: make(map[string]*Record),
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return bl, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, bl); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	if bl.Benchmarks == nil {
		bl.Benchmarks = make(map[string]*Record)
	}
	return bl, nil
}

// SuiteSpec registers one fixed suite: the id `graphbench bench <name>`
// takes, the committed baseline file it records into by default, the
// description and dataset scale written into that file, and a
// constructor. Build is lazy because constructing a suite generates
// and retains its graphs.
type SuiteSpec struct {
	Name        string
	File        string
	Description string
	Scale       int
	Build       func() []Bench
}

// Registry lists every suite, in the order their baselines were
// committed. Descriptions and entry names are recorded in BENCH_*.json;
// do not edit them.
var Registry = []SuiteSpec{
	{
		Name: "baseline", File: "BENCH_pr2.json", Scale: BaselineScale,
		Description: "graphbench tracked perf baseline: fixed micro+macro suite (see internal/perf)",
		Build:       Suite,
	},
	{
		Name: "ingest", File: "BENCH_pr3.json", Scale: IngestScale,
		Description: "graphbench tracked ingest baseline: text parse, CSR build, binary snapshot (see internal/perf/ingest.go)",
		Build:       IngestSuite,
	},
	{
		Name: "partition", File: "BENCH_pr6.json", Scale: BaselineScale,
		Description: "graphbench partition-aware perf baseline: pregel BFS under pinned placements (see internal/perf/partition.go)",
		Build:       PartitionSuite,
	},
	{
		Name: "gap", File: "BENCH_pr7.json", Scale: BaselineScale,
		Description: "graphbench GAP-kernel perf baseline: direction-optimizing BFS, delta-stepping SSSP, pull PageRank (see internal/perf/gap.go)",
		Build:       GapSuite,
	},
	{
		Name: "serve", File: "BENCH_pr8.json", Scale: BaselineScale,
		Description: "graphbench serving perf baseline: solo BFS vs 64-lane batched multi-source BFS, per-lane vs batch certificate, warmed point-query path (see internal/perf/serve.go)",
		Build:       ServeSuite,
	},
}

// SuiteByName resolves a registered suite; the error lists the valid
// names.
func SuiteByName(name string) (SuiteSpec, error) {
	names := make([]string, len(Registry))
	for i, s := range Registry {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return SuiteSpec{}, fmt.Errorf("perf: unknown suite %q (have %s)", name, strings.Join(names, " "))
}

// WriteBaseline measures the suite and merges the results into path
// under the given phase ("before" or "after"), creating the file if
// needed. It returns the updated document.
func (s SuiteSpec) WriteBaseline(path, phase string) (*Baseline, error) {
	if phase != "before" && phase != "after" {
		return nil, fmt.Errorf("perf: phase must be \"before\" or \"after\", got %q", phase)
	}
	bl, err := Load(path)
	if err != nil {
		return nil, err
	}
	bl.Description = s.Description
	bl.Scale = s.Scale
	for name, m := range MeasureSuite(s.Build()) {
		rec := bl.Benchmarks[name]
		if rec == nil {
			rec = &Record{}
			bl.Benchmarks[name] = rec
		}
		if phase == "before" {
			rec.Before = m
		} else {
			rec.After = m
		}
	}
	bl.GoVersion = runtime.Version()
	bl.GoMaxProcs = runtime.GOMAXPROCS(0)
	data, err := json.MarshalIndent(bl, "", "  ")
	if err != nil {
		return nil, err
	}
	return bl, os.WriteFile(path, append(data, '\n'), 0o644)
}

// reference picks the figure a record is summarised by: the post-PR
// measurement when present, the pre-PR one otherwise.
func reference(r *Record) *Metrics {
	if r.After != nil {
		return r.After
	}
	return r.Before
}

// Summary renders a short comparison table of the baseline, with
// speedup factors wherever both phases are present.
func (bl *Baseline) Summary() string {
	names := make([]string, 0, len(bl.Benchmarks))
	for n := range bl.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("%-36s %14s %14s %9s %9s\n", "benchmark", "ns/op", "allocs/op", "x-ns", "x-alloc")
	for _, n := range names {
		r := bl.Benchmarks[n]
		m := reference(r)
		if m == nil {
			continue
		}
		line := fmt.Sprintf("%-36s %14.0f %14d", n, m.NsPerOp, m.AllocsPerOp)
		if r.Before != nil && r.After != nil && r.After.NsPerOp > 0 && r.After.AllocsPerOp > 0 {
			line += fmt.Sprintf(" %8.2fx %8.2fx",
				r.Before.NsPerOp/r.After.NsPerOp,
				float64(r.Before.AllocsPerOp)/float64(r.After.AllocsPerOp))
		}
		s += line + "\n"
	}
	return s
}
