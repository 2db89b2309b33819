// Package evolve is the mutable overlay on the immutable CSR: an
// append-only delta log of edge insertions and deletions applied in
// sequenced batches, with snapshot-isolated readers and periodic
// compaction back into a fresh immutable graph.
//
// The paper's EVO workload only grows a forest-fire graph offline;
// production graphs mutate under live read traffic. This package
// closes that gap under two hard contracts:
//
//   - Snapshot isolation: a reader pins one *Snapshot and every
//     adjacency it observes belongs to that snapshot's epoch, no
//     matter how many batches are applied or compactions run
//     concurrently. Snapshots are immutable; the writer installs a new
//     one per applied batch behind an atomic pointer.
//
//   - Exactly-once application: batches carry 1-based contiguous
//     sequence numbers. Duplicates (retransmissions) are dropped,
//     out-of-order arrivals are buffered until the gap fills, and the
//     final state is byte-identical to clean in-order application —
//     the property the stream-chaos CI leg asserts through a lossy,
//     reordering transport (chaos.go).
//
// The overlay is a persistent chunked array, so applying a batch costs
// what the batch touches. Compaction copies its already sorted lists
// into a fresh CSR (graph.FromSortedAdjacency) without re-sorting; the
// compacted graph is byte-identical to building the net edge set from
// scratch through graph.Builder — the equivalence FuzzDeltaLog
// exercises on arbitrary interleavings.
package evolve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Typed errors; the serve layer maps both to HTTP 400.
var (
	// ErrBadOp is an edge mutation naming a vertex outside the graph.
	// The vertex set is fixed for a Mutable's lifetime — streams mutate
	// edges only, so per-vertex state derived from a snapshot
	// (IncrementalCC's forest, BFS level arrays) is sized once.
	ErrBadOp = errors.New("evolve: op vertex out of range")
	// ErrBadBatch is a batch with a zero sequence number (sequences are
	// 1-based so that epoch e means "batches 1..e applied").
	ErrBadBatch = errors.New("evolve: batch sequence must be >= 1")
)

// Op is one edge mutation.
type Op struct {
	// Del marks a deletion; the zero value is an insertion.
	Del bool           `json:"del,omitempty"`
	Src graph.VertexID `json:"src"`
	Dst graph.VertexID `json:"dst"`
}

// Insert returns an edge-insertion op.
func Insert(u, v graph.VertexID) Op { return Op{Src: u, Dst: v} }

// Delete returns an edge-deletion op.
func Delete(u, v graph.VertexID) Op { return Op{Del: true, Src: u, Dst: v} }

// Batch is one exactly-once unit of the delta log: a sequenced list of
// edge mutations applied atomically (readers see all of a batch's ops
// or none).
type Batch struct {
	// Seq is the 1-based contiguous sequence number; the epoch after
	// applying batch k is exactly k.
	Seq uint64 `json:"seq"`
	Ops []Op   `json:"ops"`
}

// chunkShift fixes the overlay's chunk at 1<<chunkShift = 16 vertices:
// a batch copies the root (one pointer per chunk) and each chunk it
// writes into, so what it pays grows with what it touches, not with
// how much the overlay already holds.
const (
	chunkShift = 4
	chunkMask  = 1<<chunkShift - 1
)

// chunk holds the replacement adjacency lists of 16 consecutive
// vertices; a nil entry means "read the base CSR".
type chunk [1 << chunkShift][]graph.VertexID

// overlay is a persistent two-level copy-on-write array of replacement
// adjacency lists (sorted, unique) over the vertices the log has
// touched since the last compaction. A nil chunk pointer means no
// vertex of that chunk is overlaid. A published overlay is never
// written: apply forks a new root and copies a chunk the first time its
// batch writes into it.
type overlay struct {
	root []*chunk
	// vertices counts non-nil entries. An overlaid list that became
	// empty stays a non-nil empty slice and still counts.
	vertices int
}

func newOverlay(n int) overlay {
	return overlay{root: make([]*chunk, (n+chunkMask)>>chunkShift)}
}

func (o *overlay) get(v graph.VertexID) []graph.VertexID {
	if c := o.root[v>>chunkShift]; c != nil {
		return c[v&chunkMask]
	}
	return nil
}

// fork returns a writable copy of o sharing every chunk.
func (o *overlay) fork() overlay {
	return overlay{root: slices.Clone(o.root), vertices: o.vertices}
}

// set installs l as v's list in o, a fork of parent. A chunk o still
// shares with parent is copied first, so parent never changes.
func (o *overlay) set(parent *overlay, v graph.VertexID, l []graph.VertexID) {
	i := v >> chunkShift
	c := o.root[i]
	if c == nil || c == parent.root[i] {
		nc := new(chunk)
		if c != nil {
			*nc = *c
		}
		o.root[i], c = nc, nc
	}
	if c[v&chunkMask] == nil {
		o.vertices++
	}
	c[v&chunkMask] = l
}

// Snapshot is one immutable epoch-consistent view of the evolving
// graph: a compacted base CSR plus a copy-on-write adjacency overlay
// for the vertices the log has touched since the last compaction.
// All methods are read-only and safe for concurrent use.
type Snapshot struct {
	epoch     uint64
	baseEpoch uint64
	base      *graph.Graph
	// out overlays out-lists; for undirected graphs it holds the
	// symmetric adjacency and in stays unused.
	out, in overlay
	edges   int64
}

// newSnapshot is an empty-overlay snapshot over base at epoch.
func newSnapshot(base *graph.Graph, epoch uint64) *Snapshot {
	s := &Snapshot{epoch: epoch, baseEpoch: epoch, base: base, edges: base.NumEdges()}
	s.out = newOverlay(base.NumVertices())
	if base.Directed() {
		s.in = newOverlay(base.NumVertices())
	}
	return s
}

// Epoch is the number of log batches folded into this snapshot.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// BaseEpoch is the epoch at which the base CSR was last compacted;
// Epoch-BaseEpoch batches live in the overlay.
func (s *Snapshot) BaseEpoch() uint64 { return s.baseEpoch }

// Base exposes the immutable compacted CSR under the overlay.
func (s *Snapshot) Base() *graph.Graph { return s.base }

// OverlayEmpty reports whether the snapshot is exactly its base CSR.
func (s *Snapshot) OverlayEmpty() bool { return s.out.vertices == 0 }

// OverlayVertices counts vertices whose out-adjacency the overlay
// replaces.
func (s *Snapshot) OverlayVertices() int { return s.out.vertices }

// NumVertices returns the (fixed) vertex count.
func (s *Snapshot) NumVertices() int { return s.base.NumVertices() }

// NumEdges returns the logical edge count at this epoch.
func (s *Snapshot) NumEdges() int64 { return s.edges }

// Directed reports the base graph's directedness.
func (s *Snapshot) Directed() bool { return s.base.Directed() }

// Out returns v's out-neighbours at this epoch, sorted ascending.
// The slice is shared and must not be modified.
func (s *Snapshot) Out(v graph.VertexID) []graph.VertexID {
	if l := s.out.get(v); l != nil {
		return l
	}
	return s.base.Out(v)
}

// In returns v's in-neighbours at this epoch, sorted ascending.
func (s *Snapshot) In(v graph.VertexID) []graph.VertexID {
	if !s.base.Directed() {
		return s.Out(v)
	}
	if l := s.in.get(v); l != nil {
		return l
	}
	return s.base.In(v)
}

// HasEdge reports whether the arc (or undirected edge) u→v exists at
// this epoch.
func (s *Snapshot) HasEdge(u, v graph.VertexID) bool {
	return containsSorted(s.Out(u), v)
}

// Materialize folds base and overlay into a fresh immutable CSR. Every
// list is already canonical (sorted, unique), so the lists are copied
// as they are (graph.FromSortedAdjacency) and the result is
// byte-identical to building the snapshot's net edge set from scratch
// through graph.Builder in any order.
func (s *Snapshot) Materialize() *graph.Graph {
	return graph.FromSortedAdjacency(s.NumVertices(), s.Directed(), s.Out, s.In)
}

// apply returns the snapshot one batch later. Ops are applied in
// order; self-loops are ignored (builder semantics), inserting a
// present edge and deleting an absent one are no-ops, so replaying the
// same batch twice would be idempotent even without sequence dedup.
func (s *Snapshot) apply(b Batch) *Snapshot {
	ns := &Snapshot{
		epoch:     s.epoch + 1,
		baseEpoch: s.baseEpoch,
		base:      s.base,
		out:       s.out.fork(),
		edges:     s.edges,
	}
	if s.base.Directed() {
		ns.in = s.in.fork()
	}
	for _, op := range b.Ops {
		if op.Src == op.Dst {
			continue
		}
		if op.Del {
			ns.deleteEdge(s, op.Src, op.Dst)
		} else {
			ns.insertEdge(s, op.Src, op.Dst)
		}
	}
	return ns
}

// insertEdge and deleteEdge write into ns, a fork of parent.
func (ns *Snapshot) insertEdge(parent *Snapshot, u, v graph.VertexID) {
	if containsSorted(ns.Out(u), v) {
		return
	}
	ns.out.set(&parent.out, u, insertSorted(ns.Out(u), v))
	if ns.base.Directed() {
		ns.in.set(&parent.in, v, insertSorted(ns.In(v), u))
	} else {
		ns.out.set(&parent.out, v, insertSorted(ns.Out(v), u))
	}
	ns.edges++
}

func (ns *Snapshot) deleteEdge(parent *Snapshot, u, v graph.VertexID) {
	if !containsSorted(ns.Out(u), v) {
		return
	}
	ns.out.set(&parent.out, u, removeSorted(ns.Out(u), v))
	if ns.base.Directed() {
		ns.in.set(&parent.in, v, removeSorted(ns.In(v), u))
	} else {
		ns.out.set(&parent.out, v, removeSorted(ns.Out(v), u))
	}
	ns.edges--
}

func containsSorted(l []graph.VertexID, v graph.VertexID) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	return i < len(l) && l[i] == v
}

// insertSorted returns a fresh sorted slice with v added; the input is
// never mutated (it may be shared with the base CSR or an older
// snapshot).
func insertSorted(l []graph.VertexID, v graph.VertexID) []graph.VertexID {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	out := make([]graph.VertexID, 0, len(l)+1)
	out = append(out, l[:i]...)
	out = append(out, v)
	return append(out, l[i:]...)
}

// removeSorted returns a fresh slice without v. It is never nil, even
// when empty: an overlaid empty list must not read as "not overlaid".
func removeSorted(l []graph.VertexID, v graph.VertexID) []graph.VertexID {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	out := make([]graph.VertexID, 0, len(l)-1)
	out = append(out, l[:i]...)
	return append(out, l[i+1:]...)
}

// Submission statuses.
const (
	// StatusApplied: the batch (and possibly buffered successors) was
	// folded into the log.
	StatusApplied = "applied"
	// StatusBuffered: the batch arrived ahead of a sequence gap and
	// waits for the missing predecessor.
	StatusBuffered = "buffered"
	// StatusDuplicate: the batch was already applied or buffered; the
	// delivery was dropped (exactly-once).
	StatusDuplicate = "duplicate"
)

// AppliedBatch pairs a folded batch with the snapshot produced by
// applying it — incremental algorithms consume exactly this stream.
type AppliedBatch struct {
	Batch Batch
	After *Snapshot
}

// SubmitResult reports what one delivery did.
type SubmitResult struct {
	Status string
	// Epoch is the latest applied epoch after this delivery.
	Epoch uint64
	// Applied lists the batches this delivery folded in, in sequence
	// order (a gap-filling delivery drains buffered successors too).
	Applied []AppliedBatch
}

// Mutable is the writer side of the evolving graph: it owns the delta
// log head and publishes immutable snapshots. Readers call Snapshot
// and never block writers; writers are internally serialised.
type Mutable struct {
	mu      sync.Mutex
	cur     atomic.Pointer[Snapshot]
	pending map[uint64]Batch
	dups    atomic.Int64
}

// NewMutable starts an evolving graph at epoch 0 over base.
func NewMutable(base *graph.Graph) *Mutable {
	m := &Mutable{pending: make(map[uint64]Batch)}
	m.cur.Store(newSnapshot(base, 0))
	return m
}

// Snapshot pins the current epoch. The returned snapshot is immutable
// and remains valid (and consistent) forever.
func (m *Mutable) Snapshot() *Snapshot { return m.cur.Load() }

// Applied returns the highest contiguously applied sequence number,
// which is also the current epoch.
func (m *Mutable) Applied() uint64 { return m.cur.Load().epoch }

// PendingBatches counts buffered out-of-order batches.
func (m *Mutable) PendingBatches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Duplicates counts dropped duplicate deliveries.
func (m *Mutable) Duplicates() int64 { return m.dups.Load() }

// Submit delivers one batch. Exactly-once semantics: duplicates are
// dropped, a batch ahead of a sequence gap is buffered, and the
// in-order batch is applied together with any buffered successors it
// unblocks. Ops are validated before anything is applied; an invalid
// batch changes nothing.
func (m *Mutable) Submit(b Batch) (SubmitResult, error) {
	if b.Seq == 0 {
		return SubmitResult{}, ErrBadBatch
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	n := cur.base.NumVertices()
	for _, op := range b.Ops {
		if int(op.Src) < 0 || int(op.Src) >= n || int(op.Dst) < 0 || int(op.Dst) >= n {
			return SubmitResult{}, fmt.Errorf("%w: (%d,%d) not in [0,%d)",
				ErrBadOp, op.Src, op.Dst, n)
		}
	}
	if b.Seq <= cur.epoch {
		m.dups.Add(1)
		return SubmitResult{Status: StatusDuplicate, Epoch: cur.epoch}, nil
	}
	if _, buffered := m.pending[b.Seq]; buffered {
		m.dups.Add(1)
		return SubmitResult{Status: StatusDuplicate, Epoch: cur.epoch}, nil
	}
	if b.Seq != cur.epoch+1 {
		m.pending[b.Seq] = b
		return SubmitResult{Status: StatusBuffered, Epoch: cur.epoch}, nil
	}
	res := SubmitResult{Status: StatusApplied}
	for {
		cur = cur.apply(b)
		m.cur.Store(cur)
		res.Applied = append(res.Applied, AppliedBatch{Batch: b, After: cur})
		next, ok := m.pending[cur.epoch+1]
		if !ok {
			break
		}
		delete(m.pending, cur.epoch+1)
		b = next
	}
	res.Epoch = cur.epoch
	return res, nil
}

// Compact folds the overlay into a fresh immutable CSR (Materialize)
// and installs it as the new base. The epoch does not move (compaction
// applies no batches); BaseEpoch advances to it. Readers holding older
// snapshots are unaffected.
func (m *Mutable) Compact() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur.baseEpoch == cur.epoch && cur.OverlayEmpty() {
		return cur
	}
	base := cur.base
	if !cur.OverlayEmpty() {
		base = cur.Materialize()
	}
	ns := newSnapshot(base, cur.epoch)
	m.cur.Store(ns)
	return ns
}

// BFS runs a sequential breadth-first traversal over the snapshot's
// adjacency (base + overlay) and returns per-vertex hop levels (-1
// unreached), the visited count, and the depth reached. Deterministic:
// adjacency lists are sorted, the frontier is a FIFO queue.
func (s *Snapshot) BFS(src graph.VertexID) (levels []int32, visited, depth int) {
	n := s.NumVertices()
	levels = make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	visited = 1
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		lv := levels[v]
		if int(lv) > depth {
			depth = int(lv)
		}
		for _, w := range s.Out(v) {
			if levels[w] < 0 {
				levels[w] = lv + 1
				visited++
				queue = append(queue, w)
			}
		}
	}
	return levels, visited, depth
}

// CheckBFS verifies BFS levels against the snapshot in O(V+E) — the
// per-snapshot analogue of algo.ValidateBFS, used to certify answers
// served from a mutated (not yet compacted) epoch:
//
//	the source is at level 0 and nothing else is;
//	every arc relaxes: levels[u] >= 0 implies 0 <= levels[v] <= levels[u]+1;
//	every reached non-source vertex has an in-neighbour one level up.
func CheckBFS(s *Snapshot, src graph.VertexID, levels []int32) error {
	n := s.NumVertices()
	if len(levels) != n {
		return fmt.Errorf("evolve: levels length %d != %d vertices", len(levels), n)
	}
	if levels[src] != 0 {
		return fmt.Errorf("evolve: source %d at level %d, want 0", src, levels[src])
	}
	for vi := 0; vi < n; vi++ {
		u := graph.VertexID(vi)
		lu := levels[u]
		if lu < 0 {
			continue
		}
		if lu == 0 && u != src {
			return fmt.Errorf("evolve: vertex %d at level 0 is not the source", u)
		}
		for _, v := range s.Out(u) {
			if lv := levels[v]; lv < 0 || lv > lu+1 {
				return fmt.Errorf("evolve: arc %d(level %d) -> %d(level %d) violates BFS", u, lu, v, lv)
			}
		}
		if lu > 0 {
			ok := false
			for _, w := range s.In(u) {
				if levels[w] == lu-1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("evolve: vertex %d at level %d has no parent at %d", u, lu, lu-1)
			}
		}
	}
	return nil
}
