// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Tables 2-8, Figures 1-16) from
// live runs of the platform engines, rendering them as aligned text
// tables. Each generator documents the paper content it reproduces;
// EXPERIMENTS.md records the side-by-side comparison.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Config configures the harness.
type Config struct {
	// Seed drives generation and randomised algorithm choices.
	Seed int64
	// Scale additionally divides the default dataset scale (1 = the
	// standard scale, bigger = smaller/faster).
	Scale int
	// CacheDir, when non-empty, enables the on-disk binary snapshot
	// cache for generated datasets (see internal/datagen): repeated
	// harness runs load graphs with one block read instead of
	// regenerating them.
	CacheDir string
	// Obs, when non-nil, is handed to every run so the engines emit
	// real spans and counters into it (see internal/obs).
	Obs *obs.Session
	// Partitioner, when non-empty (or when Shards > 0), requests an
	// explicit placement strategy for every distributed run (see
	// internal/partition). Empty with Shards == 0 keeps each engine's
	// historical default layout.
	Partitioner string
	// Shards is the shard count for the explicit placement; 0 defaults
	// to the run's node count.
	Shards int
}

// Harness runs experiments with caching: any table/figure that needs a
// run already performed reuses it.
type Harness struct {
	cfg Config

	mu      sync.Mutex
	graphs  map[string]*graph.Graph
	oracles map[string]*platform.Oracle
	results map[string]*platform.Result
}

// New returns a harness.
func New(cfg Config) *Harness {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	return &Harness{
		cfg:     cfg,
		graphs:  make(map[string]*graph.Graph),
		oracles: make(map[string]*platform.Oracle),
		results: make(map[string]*platform.Result),
	}
}

// BaseHW is the paper's basic-performance cluster: 20 nodes, one
// computing core each (Section 4.1).
func BaseHW() cluster.Hardware { return cluster.DAS4(20, 1) }

// Graph returns the cached generated dataset.
func (h *Harness) Graph(dataset string) *graph.Graph {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g, ok := h.graphs[dataset]; ok {
		return g
	}
	prof, err := datagen.ByName(dataset)
	if err != nil {
		panic(err)
	}
	g := prof.GenerateCached(h.cfg.Scale, h.cfg.Seed, h.cfg.CacheDir)
	h.graphs[dataset] = g
	return g
}

// params are the algorithm parameters every run on g gets: the harness
// seed picks them and the BFS source.
func (h *Harness) params(g *graph.Graph) algo.Params {
	params := algo.DefaultParams(h.cfg.Seed)
	params.BFSSource = algo.PickSource(g, h.cfg.Seed)
	return params
}

// Oracle returns the dataset's oracle, over the graph and parameters
// its runs get: one per dataset, so each reference is computed once.
func (h *Harness) Oracle(dataset string) *platform.Oracle {
	g := h.Graph(dataset)
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.oracles[dataset]
	if !ok {
		o = platform.NewOracle(g, h.params(g))
		h.oracles[dataset] = o
	}
	return o
}

// Run executes (or reuses) one experiment under the harness's
// configured placement.
func (h *Harness) Run(platformName, alg, dataset string, hw cluster.Hardware) *platform.Result {
	return h.runPlaced(platformName, alg, dataset, hw, h.cfg.Partitioner, h.cfg.Shards)
}

// runPlaced is the result memo over execute: one experiment under an
// explicit placement (partitioner == "" with shards == 0 is each
// engine's default layout), run once and reused by every table and
// figure that needs it. Unknown names panic: the renderers pass
// fixed ones.
func (h *Harness) runPlaced(platformName, alg, dataset string, hw cluster.Hardware, partitioner string, shards int) *platform.Result {
	key := fmt.Sprintf("%s|%s|%s|%dx%d|%s-p%d",
		platformName, alg, dataset, hw.Nodes, hw.CoresPerNode, partitioner, shards)
	h.mu.Lock()
	r, ok := h.results[key]
	h.mu.Unlock()
	if ok {
		return r
	}
	r = h.mustExecute(FreshRun{
		Platform: platformName, Algorithm: alg, Dataset: dataset, HW: hw,
		Partitioner: partitioner, Shards: shards,
	}, h.cfg.Obs, nil)
	h.mu.Lock()
	h.results[key] = r
	h.mu.Unlock()
	return r
}

// FreshRun names one execution of one cell: what runs where, under
// which placement, hot or cold.
type FreshRun struct {
	Platform  string
	Algorithm string
	Dataset   string
	HW        cluster.Hardware
	// Partitioner/Shards pin an explicit placement; both zero keeps
	// the engine's default layout.
	Partitioner string
	Shards      int
	// Cold forbids the engine's discarded warm-up pass (Neo4j's
	// hot-cache setting of Figure 1): the run starts with nothing
	// resident in the engine.
	Cold bool
}

// execute is the only place a cell becomes a platform.Spec: the
// parameters come from params, the dataset from the harness cache, and
// placement, observability session, fault injector and cache
// temperature ride along. It never consults the result memo, so every
// call performs real work.
func (h *Harness) execute(fr FreshRun, sess *obs.Session, inj *fault.Injector) (*platform.Result, error) {
	p, err := platform.ByName(fr.Platform)
	if err != nil {
		return nil, err
	}
	prof, err := datagen.ByName(fr.Dataset)
	if err != nil {
		return nil, err
	}
	g := h.Graph(fr.Dataset)
	return p.Run(platform.Spec{
		Algorithm: fr.Algorithm, Dataset: prof, G: g, HW: fr.HW,
		Params: h.params(g), WarmCache: !fr.Cold, Cold: fr.Cold,
		ScaleFactor: h.cfg.Scale, Obs: sess, Fault: inj,
		Partitioner: fr.Partitioner, Shards: fr.Shards,
	}), nil
}

// mustExecute is execute for callers whose names are fixed in code.
func (h *Harness) mustExecute(fr FreshRun, sess *obs.Session, inj *fault.Injector) *platform.Result {
	r, err := h.execute(fr, sess, inj)
	if err != nil {
		panic(err)
	}
	return r
}

// RunFresh executes one repetition, bypassing the harness result
// cache so every call performs real work — the property n-repetition
// statistics depend on. Unknown platforms/datasets return an error
// instead of panicking: the experiment driver validates specs up
// front but must not crash mid-matrix.
func (h *Harness) RunFresh(fr FreshRun) (*platform.Result, error) {
	return h.execute(fr, h.cfg.Obs, nil)
}

// ---- rendering -------------------------------------------------------

// Table is a rendered result: a title, a header, rows, and notes.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, hdr := range t.Header {
		widths[i] = len(hdr)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtSeconds prints a duration in the figure style: seconds below an
// hour, hours above.
func fmtSeconds(s float64) string {
	switch {
	case s >= 2*3600:
		return fmt.Sprintf("%.1f h", s/3600)
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	default:
		return fmt.Sprintf("%.1f s", s)
	}
}

// cell renders a result cell: the projected execution time, or the
// failure class exactly as the paper reports it.
func cell(r *platform.Result) string {
	switch r.Status {
	case platform.OK:
		return fmtSeconds(r.Seconds)
	case platform.Timeout:
		return fmt.Sprintf(">%s (t/o)", fmtSeconds(r.Seconds))
	case platform.NotSupported:
		return "n/a"
	default:
		return "crash"
	}
}

func fmtFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6:
		return fmt.Sprintf("%.2fM", x/1e6)
	case x >= 1e3:
		return fmt.Sprintf("%.1fk", x/1e3)
	case x >= 10:
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// PlatformNames lists the six platforms in Table 4 order.
func PlatformNames() []string {
	var names []string
	for _, p := range platform.All() {
		names = append(names, p.Name())
	}
	return names
}

// distributedNames lists the Table 4 platforms that run on a cluster,
// in Table 4 order.
func distributedNames() []string {
	var names []string
	for _, p := range platform.All() {
		if !p.Traits().Single {
			names = append(names, p.Name())
		}
	}
	return names
}
