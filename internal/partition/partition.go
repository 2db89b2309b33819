// Package partition is the sharded execution layer shared by every
// distributed engine: a table of named placement strategies (hash,
// range, edge-cut, vertex-cut, 2D grid) that Build dispatches from, the
// Partitioning they produce — owner tables, per-shard member lists,
// mirror/master replica sets over the shared CSR — and the quality
// statistics (cut edges, replication factor, load skew) that the
// partitioning-strategy study reports. It also holds the hash rule
// (HashOwner), the keyed record the generic engines move (Record,
// its Dataset and the Sized constraint on its value, which Pregel's
// values and messages meet too), and the split, key-sort and
// spare-buffer helpers those engines share; their tasks run through
// par.For, which owns every parallel loop. The engines consume a Partitioning through
// cluster.ExecutionProfile the same way they consume observability
// sessions and fault injectors: a nil partitioning selects each
// engine's historical default layout, so the byte-identical
// determinism contract is preserved.
//
// Placement only decides *where* work runs and *what* crosses the
// simulated network; it never changes algorithm results. Every
// strategy is a pure function of (graph, shard count), with no
// randomness beyond fixed mixing constants, so the same inputs always
// produce the same placement — the property the equivalence and chaos
// suites pin.
package partition

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Strategy names. These are the CLI-visible identifiers
// (`graphbench -partitioner <name>`).
const (
	// Hash assigns vertex v to shard v mod k — the layout the engines
	// historically used, kept as the default-compatible strategy.
	Hash = "hash"
	// Range assigns contiguous vertex ranges balanced by adjacency
	// volume (degree-weighted), preserving ID locality.
	Range = "range"
	// EdgeCut is a greedy LDG-style streaming edge-cut: each vertex
	// joins the shard holding most of its already-placed neighbours,
	// discounted by shard fullness.
	EdgeCut = "edgecut"
	// VertexCut hashes each edge to a shard and replicates its
	// endpoints there (PowerGraph's random vertex-cut — the layout the
	// gas engine has always modelled).
	VertexCut = "vertexcut"
	// Grid is a 2D (r×c) constrained vertex-cut: edge (u,v) is placed
	// in the shard at (row(u), col(v)), bounding the replication factor
	// by r+c-1.
	Grid = "grid"
)

// strategies is the strategy table, in report order: each name and
// the function that places a graph on a number of shards under it.
var strategies = []struct {
	name  string
	build func(g *graph.Graph, shards int) *Partitioning
}{
	{Hash, func(g *graph.Graph, shards int) *Partitioning { return HashPartitioning(g.NumVertices(), shards) }},
	{Range, rangePartitioning},
	{EdgeCut, edgeCutPartitioning},
	{VertexCut, VertexCutPartitioning},
	{Grid, gridPartitioning},
}

// Names lists the strategies in report order.
func Names() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// Build partitions g with the named strategy.
func Build(strategy string, g *graph.Graph, shards int) (*Partitioning, error) {
	for _, s := range strategies {
		if s.name != strategy {
			continue
		}
		if shards < 1 {
			return nil, fmt.Errorf("partition: need at least one shard, got %d", shards)
		}
		return s.build(g, shards), nil
	}
	return nil, fmt.Errorf("partition: unknown strategy %q (have %v)", strategy, Names())
}

// maxMachines caps the replica bitsets: shard sets per vertex are
// tracked for the first 64 shards, matching the gas engine's
// historical bound (the paper's clusters stop at 50 nodes).
const maxMachines = 64

// Partitioning is the placement a strategy produced: the master shard
// of every vertex, the per-shard member lists, and (for vertex-cut
// strategies) the edge→shard function that implies the mirror sets.
type Partitioning struct {
	// Strategy is the producing strategy's name.
	Strategy string
	// Shards is the number of shards (workers).
	Shards int
	// Owner[v] is the master shard of vertex v.
	Owner []int32
	// Members[s] lists the vertices mastered by shard s, in increasing
	// ID order.
	Members [][]graph.VertexID

	// edgeShard, non-nil for vertex-cut strategies, maps edge (u,v) to
	// the shard that stores and computes it; both endpoints are
	// replicated there.
	edgeShard func(u, v graph.VertexID) int

	// Lazily computed replica sets (guarded by mu; keyed by the vertex
	// count they were computed for, so EVO-style regrown graphs force a
	// recompute).
	mu       sync.Mutex
	replN    int
	replicas []uint64
	counts   []int32
}

// NumVertices returns the vertex count this partitioning was built
// for.
func (p *Partitioning) NumVertices() int { return len(p.Owner) }

// IsVertexCut reports whether edges (not vertices) are the unit of
// placement, implying mirror replicas on every shard holding one of a
// vertex's edges.
func (p *Partitioning) IsVertexCut() bool { return p.edgeShard != nil }

// OwnerOf maps an arbitrary record key to its shard: vertex keys use
// the owner table, out-of-range keys (EVO's grown vertices,
// aggregation keys) fall back to the hash rule. Negative keys are
// well-defined via the same unsigned wrap the engines always used.
func (p *Partitioning) OwnerOf(key int64) int {
	if key >= 0 && key < int64(len(p.Owner)) {
		return int(p.Owner[key])
	}
	return HashOwner(key, p.Shards)
}

// HashOwner is the hash placement rule: key k goes to shard k mod
// shards. It is Giraph's default HashPartitionerFactory, and every
// engine's layout without a partitioning. A negative key is placed by
// its unsigned wrap.
func HashOwner(key int64, shards int) int { return int(uint64(key) % uint64(shards)) }

// ResizeFor adapts the partitioning to a graph with n vertices: the
// placement of existing vertices is kept and new vertices (EVO's
// grown graphs) are hashed. The receiver is returned unchanged when
// the size already matches.
func (p *Partitioning) ResizeFor(n int) *Partitioning {
	if n == len(p.Owner) {
		return p
	}
	owner := make([]int32, n)
	copy(owner, p.Owner)
	for v := len(p.Owner); v < n; v++ {
		owner[v] = int32(HashOwner(int64(v), p.Shards))
	}
	if n < len(p.Owner) {
		owner = owner[:n]
	}
	return &Partitioning{
		Strategy: p.Strategy, Shards: p.Shards,
		Owner: owner, Members: membersOf(owner, p.Shards),
		edgeShard: p.edgeShard,
	}
}

// membersOf builds the per-shard member lists (increasing vertex ID
// within each shard) with one counting pass and one exactly-sized
// backing array.
func membersOf(owner []int32, shards int) [][]graph.VertexID {
	counts := make([]int, shards)
	for _, s := range owner {
		counts[s]++
	}
	backing := make([]graph.VertexID, 0, len(owner))
	members := make([][]graph.VertexID, shards)
	off := 0
	for s := 0; s < shards; s++ {
		members[s] = backing[off : off : off+counts[s]]
		off += counts[s]
	}
	for v, s := range owner {
		members[s] = append(members[s], graph.VertexID(v))
	}
	return members
}

// newPartitioning assembles a Partitioning from an owner table.
func newPartitioning(strategy string, shards int, owner []int32, edgeShard func(u, v graph.VertexID) int) *Partitioning {
	return &Partitioning{
		Strategy: strategy, Shards: shards,
		Owner: owner, Members: membersOf(owner, shards),
		edgeShard: edgeShard,
	}
}

// machineBit maps a shard to its replica-bitset bit, collapsing shards
// beyond the tracked bound.
func machineBit(s int32) uint64 { return 1 << (uint(s) & (maxMachines - 1)) }

// ReplicaSets returns, per vertex, the bitset of shards holding a copy
// of it (master plus mirrors), over the first 64 shards. For
// vertex-cut strategies a vertex lives wherever its edges landed; for
// edge-cut strategies it lives with its master plus a ghost copy on
// every shard mastering one of its neighbours (what a GAS gather or a
// Pregel message exchange materialises remotely).
func (p *Partitioning) ReplicaSets(g *graph.Graph) []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := g.NumVertices()
	if p.replicas != nil && p.replN == n {
		return p.replicas
	}
	seen := make([]uint64, n)
	if p.edgeShard != nil {
		for u := graph.VertexID(0); u < graph.VertexID(n); u++ {
			for _, v := range g.Out(u) {
				m := uint64(1) << uint(p.edgeShard(u, v))
				seen[u] |= m
				seen[v] |= m
			}
		}
	} else {
		for u := graph.VertexID(0); u < graph.VertexID(n); u++ {
			ob := machineBit(p.Owner[u])
			seen[u] |= ob
			for _, v := range g.Out(u) {
				seen[u] |= machineBit(p.Owner[v])
				seen[v] |= ob
			}
		}
	}
	p.replicas, p.replN, p.counts = seen, n, nil
	return seen
}

// ReplicaCounts returns per-vertex replica counts (>= 1): 1 means the
// vertex exists only on its master shard.
func (p *Partitioning) ReplicaCounts(g *graph.Graph) []int32 {
	sets := p.ReplicaSets(g)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.counts != nil && p.replN == g.NumVertices() {
		return p.counts
	}
	counts := make([]int32, len(sets))
	for i, bitsOf := range sets {
		c := int32(bits.OnesCount64(bitsOf))
		if c == 0 {
			c = 1 // isolated vertex: master copy only
		}
		counts[i] = c
	}
	p.counts = counts
	return counts
}

// Stats summarises placement quality.
type Stats struct {
	Strategy string
	Shards   int
	Vertices int
	// Arcs is the number of stored adjacency entries (undirected edges
	// appear twice, as the engines store them).
	Arcs int64
	// CutArcs counts adjacency entries whose endpoints have different
	// masters — the traffic-generating fraction of the graph.
	CutArcs int64
	// CutFraction is CutArcs / Arcs (0 when the graph has no edges).
	CutFraction float64
	// ReplicationFactor is the mean number of copies per vertex
	// (exactly 1 for a perfectly local edge-cut on one shard).
	ReplicationFactor float64
	// LoadSkew is the busiest shard's arc load over the mean (1 =
	// perfectly balanced).
	LoadSkew float64
	// ShardVertices and ShardArcs are the per-shard totals; they sum to
	// Vertices and Arcs respectively.
	ShardVertices []int
	ShardArcs     []int64
}

// ComputeStats measures the placement against g. The walk is O(V+E)
// and performed on demand — engines never pay for it.
func (p *Partitioning) ComputeStats(g *graph.Graph) Stats {
	n := g.NumVertices()
	st := Stats{
		Strategy: p.Strategy, Shards: p.Shards,
		Vertices: n, Arcs: g.AdjSize(),
		ShardVertices: make([]int, p.Shards),
		ShardArcs:     make([]int64, p.Shards),
	}
	for s, m := range p.Members {
		st.ShardVertices[s] = len(m)
	}
	for u := graph.VertexID(0); u < graph.VertexID(n); u++ {
		ou := p.Owner[u]
		for _, v := range g.Out(u) {
			if p.Owner[v] != ou {
				st.CutArcs++
			}
			if p.edgeShard != nil {
				st.ShardArcs[p.edgeShard(u, v)]++
			} else {
				st.ShardArcs[ou]++
			}
		}
	}
	if st.Arcs > 0 {
		st.CutFraction = float64(st.CutArcs) / float64(st.Arcs)
	}
	counts := p.ReplicaCounts(g)
	var replicaSum int64
	for _, c := range counts {
		replicaSum += int64(c)
	}
	st.ReplicationFactor = 1
	if n > 0 {
		st.ReplicationFactor = float64(replicaSum) / float64(n)
	}
	var maxLoad int64
	for _, l := range st.ShardArcs {
		if l > maxLoad {
			maxLoad = l
		}
	}
	st.LoadSkew = 1
	if st.Arcs > 0 {
		st.LoadSkew = float64(maxLoad) * float64(p.Shards) / float64(st.Arcs)
	}
	return st
}

// ---- keyed records (shared by mapreduce, dataflow and pregel) -------

// Sized is a value whose serialised size, in bytes, an engine charges
// to its disk, network and memory accounts: the value of a generic
// engine's record, or a Pregel vertex value or message. The engines
// move Sized values by value.
type Sized interface{ Size() int64 }

// Record is one keyed record of a generic engine. Keys are int64
// (vertex IDs in the graph jobs).
type Record[V Sized] struct {
	Key   int64
	Value V
}

// Bytes is the record's serialised size: the key, framed to 10 bytes
// as in text form, plus the value.
func (r Record[V]) Bytes() int64 { return 10 + r.Value.Size() }

// KeyOf returns r's key, the order SortByKey groups records by.
func KeyOf[V Sized](r Record[V]) int64 { return r.Key }

// Dataset is a materialised collection of records: a DFS file of a
// MapReduce job, an operator's output in a PACT plan.
type Dataset[V Sized] []Record[V]

// Bytes returns the dataset's serialised size.
func (d Dataset[V]) Bytes() int64 {
	var n int64
	for _, r := range d {
		n += r.Bytes()
	}
	return n
}

// ---- record splitting and sorting (shared by mapreduce and dataflow) -

// SplitContiguous splits items into at most parts contiguous chunks of
// near-equal record count — the range strategy over a record stream.
// Only non-empty chunks are returned, so small inputs yield fewer
// tasks rather than phantom empty ones.
func SplitContiguous[S ~[]T, T any](items S, parts int) []S {
	if len(items) == 0 || parts <= 0 {
		return nil
	}
	per := (len(items) + parts - 1) / parts
	splits := make([]S, 0, parts)
	for lo := 0; lo < len(items); lo += per {
		hi := lo + per
		if hi > len(items) {
			hi = len(items)
		}
		splits = append(splits, items[lo:hi])
	}
	return splits
}

// SplitByOwner buckets the items of every slice given, in order, by
// owner(item) into exactly shards buckets (empty buckets included —
// bucket index is the shard ID), so a bucket keeps its items' input
// order. Two passes share one exactly-sized backing array instead of
// growing shards slices by repeated append, and several inputs are
// bucketed without first being concatenated. The buckets live in
// backing's array when it can hold every item (it must not overlap
// them), else in a new one.
func SplitByOwner[S ~[]T, T any](backing S, shards int, owner func(T) int, items ...S) []S {
	counts := make([]int, shards)
	total := 0
	for _, in := range items {
		for _, it := range in {
			counts[owner(it)]++
		}
		total += len(in)
	}
	if cap(backing) < total {
		backing = make(S, 0, total)
	}
	parts := make([]S, shards)
	off := 0
	for s := 0; s < shards; s++ {
		parts[s] = backing[off : off : off+counts[s]]
		off += counts[s]
	}
	for _, in := range items {
		for _, it := range in {
			s := owner(it)
			parts[s] = append(parts[s], it)
		}
	}
	return parts
}

// SortByKey returns items stably ordered by key(item): equal keys keep
// their input order. items is not modified. The result lives in dst's
// array when it can hold len(items) items (it must not overlap items),
// else in a new one.
//
// It is an LSD radix sort over pointer-free words. Each word packs an
// item's key offset (key − min key) above the item's input index, so
// the passes move 8-byte words — never the items, whose pointers would
// each take a GC write barrier — and equal keys stay in index order,
// which is what makes the sort stable. Only as many 8-bit passes run as
// the key span needs; one gather then builds the result. When the key
// offset and the index do not fit one word together (their bit lengths
// sum past 64: a span near 2⁶⁴, or n and the span both past about
// 2³²), the offset is sorted in chunks that do, low chunk first: each
// chunk re-packs the order the previous one left and radix-sorts it
// the same way.
func SortByKey[S ~[]T, T any](dst, items S, key func(T) int64) S {
	n := len(items)
	if n == 0 {
		return dst[:0]
	}
	lo, hi := key(items[0]), key(items[0])
	for _, it := range items[1:] {
		k := key(it)
		lo, hi = min(lo, k), max(hi, k)
	}
	span := uint64(hi) - uint64(lo) // hi − lo, exact for every int64 pair
	keyBits := uint(bits.Len64(span))
	idxBits := uint(bits.Len64(uint64(n - 1)))
	idxMask := uint64(1)<<idxBits - 1
	chunkBits := 64 - idxBits // ≥ 1: n−1 < 2⁶³

	sc := radixScratch.Get().(*[2][]uint64)
	if cap(sc[0]) < n {
		sc[0], sc[1] = make([]uint64, n), make([]uint64, n)
	}
	words, spare := sc[0][:n], sc[1][:n]
	for i := range words {
		words[i] = uint64(i)
	}
	for shift := uint(0); shift < keyBits; shift += chunkBits {
		width := min(chunkBits, keyBits-shift)
		mask := uint64(1)<<width - 1
		for i, w := range words {
			j := w & idxMask
			off := (uint64(key(items[j])) - uint64(lo)) >> shift & mask
			words[i] = off<<idxBits | j
		}
		for d := uint(0); d < width; d += 8 {
			radixPass(words, spare, idxBits+d)
			words, spare = spare, words
		}
	}
	out := dst[:0]
	if cap(out) < n {
		out = make(S, 0, n)
	}
	out = out[:n]
	for i, w := range words {
		out[i] = items[w&idxMask]
	}
	radixScratch.Put(sc)
	return out
}

// radixScratch holds SortByKey's two word buffers between calls.
var radixScratch = sync.Pool{New: func() any { return new([2][]uint64) }}

// radixPass stably counting-sorts src into dst by the byte at shift.
func radixPass(src, dst []uint64, shift uint) {
	var count [256]int
	for _, w := range src {
		count[byte(w>>shift)]++
	}
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for _, w := range src {
		d := byte(w >> shift)
		dst[count[d]] = w
		count[d]++
	}
}

// Room returns s emptied, or a new slice when s cannot hold n items:
// how an engine refills a scratch array it keeps between jobs.
func Room[S ~[]T, T any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}

// Spare is a stack of spare arrays for the scratch only a running task
// holds: a task takes one, refills it (Room, append, SortByKey) and
// gives it back, so an engine keeps about one per worker rather than
// one per task. A spare array keeps what it last held reachable, so
// Spare is for pointer-free items. The zero Spare is empty; it is safe
// for concurrent use.
type Spare[T any] struct {
	mu    sync.Mutex
	stack [][]T
}

// Get returns the last array given back, emptied, or nil.
func (p *Spare[T]) Get() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.stack)
	if n == 0 {
		return nil
	}
	s := p.stack[n-1]
	p.stack[n-1] = nil
	p.stack = p.stack[:n-1]
	return s[:0]
}

// Put gives s back. The caller must hold no other reference into it.
func (p *Spare[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.stack = append(p.stack, s)
	p.mu.Unlock()
}
