// Package serve is the graph-serving daemon: generated datasets stay
// memory-resident (loaded through the binary-snapshot cache, so a warm
// start is one GCSR read instead of a regeneration) and point queries —
// BFS distance/reachability, connected-component lookup, graph stats —
// are answered over an in-process API and an HTTP/JSON front end.
//
// Datasets are EVOLVING: each one is an evolve.Mutable — an immutable
// compacted base CSR plus an overlay of applied edge-mutation batches.
// Mutations arrive through Server.Mutate with exactly-once semantics
// (duplicates dropped, out-of-order batches buffered); every query
// answer carries the epoch it was served at, and queries pin a
// snapshot so they always see a consistent epoch regardless of
// concurrent writers. After CompactEvery applied batches the overlay
// is folded into a fresh CSR by copying its sorted lists, the
// incrementally maintained component labels — the one derived view a
// query reads — are cross-checked byte-identical against full
// recomputation, and the serving state (the batcher and its result
// cache) is swapped atomically. A failed cross-check fails the
// compaction and leaves the serving state as it was.
//
// The perf core is the batching scheduler in batcher.go: concurrent
// BFS-backed point queries coalesce into one multi-source
// lane-bitmask sweep (algo.BFSMultiSource), so a batch of 64 queries
// costs a handful of shared CSR sweeps instead of 64 traversals. A
// batch forms by group commit: the first waiting query opens it and
// takes whatever else is already queued, so the load sets its size.
// Sweep and certificate are pipelined stages: while one batch is
// certified the next forms and sweeps. Full per-source trees are kept
// in a bounded result cache — a point query is then one map lookup,
// and every tree entering the cache or answering a query has been
// checked by algo.ValidateBFSBatch first, so served answers are
// certified. Every certificate is unconditional: ValidateBFSBatch on
// each executed batch, evolve.CheckBFS on each snapshot-path answer.
// The batcher serves exactly one compacted epoch; while the overlay is
// non-empty, BFS-backed queries run on the pinned snapshot directly
// (certified by evolve.CheckBFS) so answers are always current.
//
// Admission control is a bounded execution queue: when it is full,
// queries fail fast with a typed ErrOverloaded (HTTP 429) instead of
// queueing without bound; per-query deadlines cancel in-flight sweeps
// through the kernel's context checks (ErrDeadlineExceeded, HTTP 504).
//
// The daemon's one in-process load driver is the closed-loop user
// fleet in stream.go (RunStream, RunStreamChaos; `graphbench stream`).
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Typed serving errors; the HTTP layer maps each to a status code.
var (
	// ErrOverloaded is admission control rejecting a query because the
	// execution queue is full (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded, execution queue full")
	// ErrUnknownDataset names a dataset the server did not load (HTTP 404).
	ErrUnknownDataset = errors.New("serve: unknown dataset")
	// ErrBadVertex is a vertex ID outside the dataset's range (HTTP 404).
	ErrBadVertex = errors.New("serve: vertex out of range")
)

// Config sizes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Datasets are datagen profile names to load resident; nil loads
	// only DotaLeague.
	Datasets []string
	// Scale and Seed pin the generated datasets (defaults: scale 8 —
	// the perf-baseline scale — and seed 42).
	Scale int
	Seed  int64
	// CacheDir, when non-empty, loads/saves binary GCSR snapshots so
	// restarts skip regeneration. Compaction also writes each folded
	// epoch's snapshot here under its evolved key.
	CacheDir string
	// Workers caps kernel parallelism (0: kernel default).
	Workers int
	// QueueDepth bounds the execution queue; admission beyond it fails
	// with ErrOverloaded (default 1024).
	QueueDepth int
	// QueryTimeout is the per-query deadline (default 200ms — a cold
	// full batch sweeps and certifies its 64 lanes in a few
	// milliseconds, so this leaves room for some dozens of batches
	// queued ahead; warm queries answer in microseconds).
	QueryTimeout time.Duration
	// ResultCacheSize bounds the per-dataset BFS result cache, in source
	// vertices (default 8192).
	ResultCacheSize int
	// CompactEvery folds the mutation overlay into a fresh CSR after
	// this many applied batches (default 64; negative disables
	// automatic compaction — Server.Compact still works).
	CompactEvery int
	// Obs receives spans (batch executions) and counters; nil disables.
	Obs *obs.Session
}

func (c *Config) fill() {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"DotaLeague"}
	}
	if c.Scale <= 0 {
		c.Scale = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 200 * time.Millisecond
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 8192
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 64
	}
}

// Server is the daemon: resident evolving datasets, one batching
// scheduler per compacted serving state, and the query/mutation API
// the HTTP layer and the user fleet (stream.go) share.
type Server struct {
	cfg      Config
	datasets map[string]*dataset
}

// dataset is one resident evolving graph: the mutation log, the
// incremental component state fed by it, and the epoch-pinned serving
// state (dsState) reads go through.
type dataset struct {
	name string
	n    int // vertex count (fixed: mutations change edges only)

	mut *evolve.Mutable
	// st is the current compacted serving state; swapped atomically by
	// compaction, so readers never block on writers.
	st atomic.Pointer[dsState]

	// mu serialises the write path: Submit, incremental-CC
	// maintenance, compaction, and the component-label cache (which is
	// derived from the incremental CC state).
	mu           sync.Mutex
	cc           *algo.IncrementalCC
	batchesSince int // applied batches since last compaction
	compactions  int64

	// Counters (nil-safe when no obs session is attached):
	//   serve.compact.failures  compactions refused by the cross-check
	//   serve.compact.ns        wall time inside compactions that fold
	//                           an overlay, failed ones included
	//   serve.cc.rebuilds       deletion-triggered IncrementalCC rebuilds
	compactFailures, compactNs, ccRebuilds *obs.Counter

	// Component-label cache, keyed by the epoch it was computed at.
	ccEpoch  uint64
	ccLabels []graph.VertexID
	ccSizes  map[graph.VertexID]int
}

// dsState is the immutable per-compaction serving state: the compacted
// base CSR at one epoch plus everything derived from exactly that
// graph. A compaction builds a fresh dsState and retires the old one;
// in-flight queries finish against the state they loaded.
type dsState struct {
	// epoch is the compaction epoch g reflects. It is atomic because
	// an empty-overlay compaction advances the epoch label without
	// swapping the state (the folded graph is the one already served).
	epoch   atomic.Uint64
	g       *graph.Graph
	batcher *batcher
}

// New loads every configured dataset resident (through the snapshot
// cache when CacheDir is set) and starts the batching schedulers.
// Callers must Close the server to stop them.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{cfg: cfg, datasets: make(map[string]*dataset, len(cfg.Datasets))}
	for _, name := range cfg.Datasets {
		p, err := datagen.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		g := p.GenerateCached(cfg.Scale, cfg.Seed, cfg.CacheDir) // "" disables the cache
		reg := cfg.Obs.R()
		d := &dataset{
			name:            p.Name,
			n:               g.NumVertices(),
			mut:             evolve.NewMutable(g),
			cc:              algo.NewIncrementalCC(g),
			compactFailures: reg.Counter("serve.compact.failures"),
			compactNs:       reg.Counter("serve.compact.ns"),
			ccRebuilds:      reg.Counter("serve.cc.rebuilds"),
		}
		st := &dsState{g: g}
		st.batcher = newBatcher(g, &s.cfg)
		d.st.Store(st)
		s.datasets[p.Name] = d
	}
	return s, nil
}

// Close stops the batching schedulers. In-flight batches finish;
// queued queries are answered before shutdown completes.
func (s *Server) Close() {
	for _, d := range s.datasets {
		d.st.Load().batcher.stop()
	}
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Datasets lists the resident dataset names, sorted.
func (s *Server) Datasets() []string {
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Server) dataset(name string) (*dataset, error) {
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return d, nil
}

func (d *dataset) checkVertex(v graph.VertexID) error {
	if int(v) < 0 || int(v) >= d.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadVertex, v, d.n)
	}
	return nil
}

// MutateAnswer reports the fate of one submitted mutation batch.
type MutateAnswer struct {
	Dataset string `json:"dataset"`
	Seq     uint64 `json:"seq"`
	// Status is evolve.StatusApplied, StatusBuffered (waiting for an
	// earlier sequence number) or StatusDuplicate (already applied).
	Status string `json:"status"`
	// Epoch is the dataset epoch after this submission.
	Epoch uint64 `json:"epoch"`
	// Applied counts batches this submission applied (the batch itself
	// plus any buffered successors it unblocked; 0 when buffered or
	// duplicate).
	Applied int `json:"applied"`
	// Compacted reports that this submission triggered a compaction.
	Compacted bool `json:"compacted"`
}

// Mutate submits one edge-mutation batch with exactly-once semantics:
// duplicate sequence numbers are dropped, out-of-order batches are
// buffered until the gap fills. Applied batches immediately update the
// incremental component state; after CompactEvery applied batches the
// overlay is folded into a fresh serving state.
func (s *Server) Mutate(dsName string, b evolve.Batch) (*MutateAnswer, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	res, err := d.mut.Submit(b)
	if err != nil {
		return nil, err
	}
	for _, ab := range res.Applied {
		d.cc.Apply(ab.Batch.Ops)
	}
	d.batchesSince += len(res.Applied)
	ans := &MutateAnswer{
		Dataset: d.name,
		Seq:     b.Seq,
		Status:  res.Status,
		Epoch:   res.Epoch,
		Applied: len(res.Applied),
	}
	if s.cfg.CompactEvery > 0 && d.batchesSince >= s.cfg.CompactEvery {
		if err := d.compactLocked(&s.cfg); err != nil {
			return nil, err
		}
		ans.Compacted = true
	}
	return ans, nil
}

// CompactAnswer reports a compaction's outcome.
type CompactAnswer struct {
	Dataset string `json:"dataset"`
	// Epoch is the compaction epoch the serving state now reflects.
	Epoch uint64 `json:"epoch"`
	// Compactions counts state swaps since startup (a compaction with
	// an empty overlay is a no-op and does not swap).
	Compactions int64 `json:"compactions"`
	// Pending counts buffered out-of-order batches still waiting for a
	// sequence gap to fill; they are NOT folded by compaction.
	Pending int `json:"pending"`
}

// Compact folds the applied overlay into a fresh compacted serving
// state now, regardless of CompactEvery.
func (s *Server) Compact(dsName string) (*CompactAnswer, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.compactLocked(&s.cfg); err != nil {
		return nil, err
	}
	return &CompactAnswer{
		Dataset:     d.name,
		Epoch:       d.st.Load().epoch.Load(),
		Compactions: d.compactions,
		Pending:     d.mut.PendingBatches(),
	}, nil
}

// compactLocked (d.mu held) folds the overlay, cross-checks the
// incremental component labels byte-identical against full
// recomputation over the compacted CSR, swaps the serving state, and
// retires the old batcher. An empty overlay is a no-op.
func (d *dataset) compactLocked(cfg *Config) error {
	start := time.Now()
	snap := d.mut.Compact()
	g := snap.Base()
	old := d.st.Load()
	d.batchesSince = 0
	if old.g == g {
		// Nothing was folded (overlay already empty): the graph is
		// unchanged, only the epoch label moves.
		old.epoch.Store(snap.Epoch())
		return nil
	}
	defer func() { d.compactNs.Add(time.Since(start).Nanoseconds()) }()
	if err := algo.CheckLabelsEqual(d.labelsLocked(snap), g.ConnectedComponents()); err != nil {
		d.compactFailures.Add(1)
		return fmt.Errorf("serve: incremental CC diverged from full recompute at epoch %d: %w",
			snap.Epoch(), err)
	}
	st := &dsState{g: g}
	st.epoch.Store(snap.Epoch())
	st.batcher = newBatcher(g, cfg)
	d.st.Store(st)
	old.batcher.stop()
	d.compactions++
	if cfg.CacheDir != "" {
		path := filepath.Join(cfg.CacheDir,
			datagen.EvolvedSnapshotKey(d.name, cfg.Scale, cfg.Seed, snap.Epoch()))
		if err := datagen.WriteSnapshot(path, g); err != nil {
			return fmt.Errorf("serve: writing compacted snapshot: %w", err)
		}
	}
	return nil
}

// labelsLocked (d.mu held) is d.cc.Labels, counting the rebuilds it
// runs.
func (d *dataset) labelsLocked(snap *evolve.Snapshot) []graph.VertexID {
	before := d.cc.Rebuilds
	labels := d.cc.Labels(snap)
	d.ccRebuilds.Add(d.cc.Rebuilds - before)
	return labels
}

// BFSAnswer is one point-query result derived from a certified BFS
// tree.
type BFSAnswer struct {
	Dataset   string `json:"dataset"`
	Src       int64  `json:"src"`
	Target    int64  `json:"target"`
	Reachable bool   `json:"reachable"`
	// Dist is the hop distance src→target, -1 when unreachable.
	Dist int32 `json:"dist"`
	// Visited counts vertices reachable from src.
	Visited int `json:"visited"`
	// Cached reports whether the query was served from the result
	// cache (false: this query's batch executed the sweep, or the
	// answer ran on the live snapshot).
	Cached bool `json:"cached"`
	// Epoch is the dataset epoch this answer reflects.
	Epoch uint64 `json:"epoch"`
}

// bfsLevels answers a BFS-backed query at a consistent epoch. While
// the pinned snapshot matches the compacted serving state it rides the
// batching scheduler (amortised sweeps + result cache); when the
// overlay has pending mutations — or the batcher was retired by a
// concurrent compaction mid-query — it runs a certified BFS on the
// snapshot itself.
func (s *Server) bfsLevels(ctx context.Context, d *dataset, src graph.VertexID) (levels []int32, visited int, cached bool, epoch uint64, err error) {
	snap := d.mut.Snapshot()
	st := d.st.Load()
	if snap.OverlayEmpty() && snap.Base() == st.g {
		tree, hit, terr := st.batcher.tree(ctx, src)
		if terr == nil {
			return tree.Levels, tree.Visited, hit, snap.Epoch(), nil
		}
		if !errors.Is(terr, errStaleBatcher) {
			return nil, 0, false, 0, terr
		}
		// The batcher retired under us: fall through to the snapshot.
	}
	levels, visited, _ = snap.BFS(src)
	if cerr := evolve.CheckBFS(snap, src, levels); cerr != nil {
		return nil, 0, false, 0, fmt.Errorf("serve: snapshot BFS certificate failed for source %d: %w", src, cerr)
	}
	return levels, visited, false, snap.Epoch(), nil
}

// BFS answers a point reachability/distance query. Cache hits return
// immediately; misses ride the batching scheduler (or the live
// snapshot while mutations are pending). The context bounds the whole
// query; the configured QueryTimeout is applied on top.
func (s *Server) BFS(ctx context.Context, dsName string, src, target graph.VertexID) (*BFSAnswer, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	if err := d.checkVertex(src); err != nil {
		return nil, err
	}
	if err := d.checkVertex(target); err != nil {
		return nil, err
	}
	levels, visited, cached, epoch, err := s.bfsLevels(ctx, d, src)
	if err != nil {
		return nil, err
	}
	dist := levels[target]
	return &BFSAnswer{
		Dataset:   d.name,
		Src:       int64(src),
		Target:    int64(target),
		Reachable: dist >= 0,
		Dist:      dist,
		Visited:   visited,
		Cached:    cached,
		Epoch:     epoch,
	}, nil
}

// ComponentAnswer locates a vertex's connected component.
type ComponentAnswer struct {
	Dataset string `json:"dataset"`
	Vertex  int64  `json:"vertex"`
	// Component is the component label (the minimum vertex ID in the
	// component, the engines' shared convention).
	Component int64 `json:"component"`
	Size      int   `json:"size"`
	// Epoch is the dataset epoch this answer reflects.
	Epoch uint64 `json:"epoch"`
}

// Component answers a connected-component lookup from the
// incrementally maintained union-find state; labels are cached per
// epoch so repeated lookups at an unchanged epoch are one map access.
func (s *Server) Component(ctx context.Context, dsName string, v graph.VertexID) (*ComponentAnswer, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	if err := d.checkVertex(v); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", algo.ErrDeadlineExceeded, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := d.mut.Snapshot()
	if d.ccLabels == nil || d.ccEpoch != snap.Epoch() {
		d.ccLabels = d.labelsLocked(snap)
		d.ccSizes = make(map[graph.VertexID]int)
		for _, label := range d.ccLabels {
			d.ccSizes[label]++
		}
		d.ccEpoch = snap.Epoch()
	}
	label := d.ccLabels[v]
	return &ComponentAnswer{
		Dataset:   d.name,
		Vertex:    int64(v),
		Component: int64(label),
		Size:      d.ccSizes[label],
		Epoch:     snap.Epoch(),
	}, nil
}

// StatsAnswer summarises a resident dataset.
type StatsAnswer struct {
	Dataset  string `json:"dataset"`
	Directed bool   `json:"directed"`
	Vertices int    `json:"vertices"`
	// Edges is the LIVE edge count (compacted base plus overlay).
	Edges     int64   `json:"edges"`
	AvgDegree float64 `json:"avg_degree"`
	MaxDegree int     `json:"max_degree"`
	// LinkDensity, AvgDegree and MaxDegree describe the compacted base
	// CSR (degree structure is recomputed at compaction, not per
	// mutation).
	LinkDensity float64 `json:"link_density"`
	// CacheEntries counts BFS trees currently resident in the result
	// cache.
	CacheEntries int `json:"cache_entries"`
	// Epoch is the live dataset epoch; BaseEpoch is the compaction
	// epoch the serving state reflects.
	Epoch     uint64 `json:"epoch"`
	BaseEpoch uint64 `json:"base_epoch"`
	// PendingBatches counts buffered out-of-order mutation batches.
	PendingBatches int `json:"pending_batches"`
	// Compactions counts serving-state swaps since startup.
	Compactions int64 `json:"compactions"`
}

// Stats reports structural stats for a resident dataset.
func (s *Server) Stats(dsName string) (*StatsAnswer, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	snap := d.mut.Snapshot()
	st := d.st.Load()
	d.mu.Lock()
	compactions := d.compactions
	d.mu.Unlock()
	return &StatsAnswer{
		Dataset:        d.name,
		Directed:       st.g.Directed(),
		Vertices:       d.n,
		Edges:          snap.NumEdges(),
		AvgDegree:      st.g.AvgDegree(),
		MaxDegree:      st.g.MaxDegree(),
		LinkDensity:    st.g.LinkDensity(),
		CacheEntries:   st.batcher.cacheLen(),
		Epoch:          snap.Epoch(),
		BaseEpoch:      st.epoch.Load(),
		PendingBatches: d.mut.PendingBatches(),
		Compactions:    compactions,
	}, nil
}

// Graph exposes a resident dataset's compacted base CSR (read-only) —
// the user fleet byte-compares it against the clean replay. Vertex
// count is stable across compactions; edges reflect the last
// compaction.
func (s *Server) Graph(dsName string) (*graph.Graph, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	return d.st.Load().g, nil
}

// Snapshot exposes a resident dataset's live evolving snapshot —
// epoch-consistent and immutable. The claim benchmark and tests use it
// to cross-check served answers.
func (s *Server) Snapshot(dsName string) (*evolve.Snapshot, error) {
	d, err := s.dataset(dsName)
	if err != nil {
		return nil, err
	}
	return d.mut.Snapshot(), nil
}
