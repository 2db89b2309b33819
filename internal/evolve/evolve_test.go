package evolve_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// testGraph generates a small dataset by profile name.
func testGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	return p.GenerateScaled(64, 42)
}

func graphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// shadow tracks a net edge set outside the package under test: each
// arc once, an undirected edge as (low, high).
type shadow struct {
	n        int
	directed bool
	arcs     map[[2]graph.VertexID]bool
}

func newShadow(base *graph.Graph) *shadow {
	s := &shadow{n: base.NumVertices(), directed: base.Directed(), arcs: make(map[[2]graph.VertexID]bool)}
	base.Edges(func(e graph.Edge) { s.arcs[s.key(e.Src, e.Dst)] = true })
	return s
}

func (s *shadow) key(u, v graph.VertexID) [2]graph.VertexID {
	if !s.directed && u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

// apply folds ops in with the log's semantics: self-loops are dropped,
// inserting a present edge and deleting an absent one change nothing.
func (s *shadow) apply(ops []evolve.Op) {
	for _, op := range ops {
		switch {
		case op.Src == op.Dst:
		case op.Del:
			delete(s.arcs, s.key(op.Src, op.Dst))
		default:
			s.arcs[s.key(op.Src, op.Dst)] = true
		}
	}
}

// build constructs the net edge set's CSR through graph.Builder.
func (s *shadow) build() *graph.Graph {
	b := graph.NewBuilder(s.n, s.directed)
	for arc := range s.arcs {
		b.AddEdge(arc[0], arc[1])
	}
	return b.Build()
}

// scratchBuild constructs the CSR for base's net edge set after
// batches from scratch, through graph.Builder and never through evolve
// — the reference every compaction must match byte-for-byte.
func scratchBuild(base *graph.Graph, batches []evolve.Batch) *graph.Graph {
	s := newShadow(base)
	for _, b := range batches {
		s.apply(b.Ops)
	}
	return s.build()
}

// streamGraph is the dataset the streaming benchmark mutates:
// DotaLeague at scale 8, 1 529 vertices and 115 611 edges.
func streamGraph(t *testing.T) *graph.Graph {
	t.Helper()
	p, err := datagen.ByName("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	return p.GenerateScaled(8, 42)
}

// TestIsolationAtEveryEpoch pins the snapshot after each of 64 batches
// of the streaming benchmark's shape (32 ops, half deletions), compacts
// halfway, and only then materialises all 64: every one must still be
// the Builder build of exactly its own prefix, however many later
// batches copied the chunks it shares.
func TestIsolationAtEveryEpoch(t *testing.T) {
	g := streamGraph(t)
	batches := datagen.UpdateStream(g, 5, 64, 32, 0.5)
	m := evolve.NewMutable(g)
	pinned := make([]*evolve.Snapshot, len(batches))
	for i, b := range batches {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
		pinned[i] = m.Snapshot()
		if i == len(batches)/2 {
			m.Compact()
		}
	}
	s := newShadow(g)
	for i, b := range batches {
		s.apply(b.Ops)
		if !bytes.Equal(graphBytes(t, pinned[i].Materialize()), graphBytes(t, s.build())) {
			t.Fatalf("snapshot pinned at epoch %d diverged from the build of its prefix", i+1)
		}
	}
}

// TestSubmitAllocatesWhatItTouches pins "a batch pays for what it
// touches": the same 32-op batches allocate at most a quarter more when
// submitted on an overlay that already replaces about 1 300 of 1 529
// adjacency lists than on an empty one. A whole-overlay map clone per
// batch reads 2.45x here.
func TestSubmitAllocatesWhatItTouches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	g := streamGraph(t)
	const fill, measured = 64, 16
	batches := datagen.UpdateStream(g, 3, fill+measured, 32, 0.5)
	empty, full := evolve.NewMutable(g), evolve.NewMutable(g)
	for _, b := range batches[:fill] {
		for _, m := range []*evolve.Mutable{empty, full} {
			if _, err := m.Submit(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty.Compact()
	if v := full.Snapshot().OverlayVertices(); v < 1000 {
		t.Fatalf("overlay holds %d vertices after %d batches, want a full one", v, fill)
	}
	submitBytes := func(m *evolve.Mutable, b evolve.Batch) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := m.Submit(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	var onEmpty, onFull uint64
	for _, b := range batches[fill:] {
		onEmpty += submitBytes(empty, b)
		empty.Compact()
		onFull += submitBytes(full, b)
	}
	ratio := float64(onFull) / float64(onEmpty)
	t.Logf("%d batches: %d B on an empty overlay, %d B on a full one (%.2fx)", measured, onEmpty, onFull, ratio)
	if ratio > 1.25 {
		t.Fatalf("a batch on a full overlay allocates %.2fx what it does on an empty one, want <= 1.25x", ratio)
	}
}

func TestOverlayMatchesBatchBuild(t *testing.T) {
	for _, name := range []string{"KGS", "Citation"} {
		t.Run(name, func(t *testing.T) {
			g := testGraph(t, name)
			batches := datagen.UpdateStream(g, 7, 24, 16, 0.3)
			if len(batches) != 24 {
				t.Fatalf("got %d batches, want 24", len(batches))
			}
			m := evolve.NewMutable(g)
			for _, b := range batches {
				res, err := m.Submit(b)
				if err != nil {
					t.Fatalf("Submit(%d): %v", b.Seq, err)
				}
				if res.Status != evolve.StatusApplied {
					t.Fatalf("Submit(%d) status %s, want applied", b.Seq, res.Status)
				}
			}
			if got := m.Applied(); got != 24 {
				t.Fatalf("Applied() = %d, want 24", got)
			}
			// Materialize must equal a from-scratch builder over the
			// same net edge set.
			direct := m.Snapshot().Materialize()
			want := scratchBuild(g, batches)
			if !direct.Equal(want) {
				t.Fatal("Materialize diverged from scratch build")
			}
			if !bytes.Equal(graphBytes(t, direct), graphBytes(t, want)) {
				t.Fatal("Materialize bytes diverged from scratch build")
			}
			// Compaction must produce the same graph and keep the
			// epoch while advancing the base epoch.
			cs := m.Compact()
			if cs.Epoch() != 24 || cs.BaseEpoch() != 24 {
				t.Fatalf("compacted epoch/base = %d/%d, want 24/24", cs.Epoch(), cs.BaseEpoch())
			}
			if !bytes.Equal(graphBytes(t, cs.Base()), graphBytes(t, want)) {
				t.Fatal("compacted base diverged from scratch build")
			}
			if !cs.OverlayEmpty() {
				t.Fatal("compacted snapshot still has overlay entries")
			}
			if cs.NumEdges() != cs.Base().NumEdges() {
				t.Fatalf("edge count %d != base %d", cs.NumEdges(), cs.Base().NumEdges())
			}
		})
	}
}

func TestSnapshotEdgeAccounting(t *testing.T) {
	g := testGraph(t, "KGS")
	m := evolve.NewMutable(g)
	edges := g.NumEdges()
	batches := datagen.UpdateStream(g, 3, 16, 8, 0.4)
	for _, b := range batches {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		for _, op := range b.Ops {
			if op.Del {
				edges--
			} else {
				edges++
			}
		}
	}
	if got := m.Snapshot().NumEdges(); got != edges {
		t.Fatalf("NumEdges = %d, want %d", got, edges)
	}
	if got := m.Compact().Base().NumEdges(); got != edges {
		t.Fatalf("compacted NumEdges = %d, want %d", got, edges)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := testGraph(t, "Citation")
	m := evolve.NewMutable(g)
	batches := datagen.UpdateStream(g, 11, 12, 8, 0.25)

	for _, b := range batches[:6] {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	pinned := m.Snapshot()
	pinnedBytes := graphBytes(t, pinned.Materialize())
	pinnedEdges := pinned.NumEdges()

	// Mutate and compact underneath the pinned reader.
	for _, b := range batches[6:] {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	m.Compact()

	if pinned.Epoch() != 6 {
		t.Fatalf("pinned epoch moved to %d", pinned.Epoch())
	}
	if pinned.NumEdges() != pinnedEdges {
		t.Fatal("pinned edge count moved")
	}
	if !bytes.Equal(graphBytes(t, pinned.Materialize()), pinnedBytes) {
		t.Fatal("pinned snapshot's adjacency changed under later mutations")
	}
	// And the pinned state is exactly batches[:6] applied cleanly.
	want := scratchBuild(g, batches[:6])
	if !bytes.Equal(pinnedBytes, graphBytes(t, want)) {
		t.Fatal("pinned snapshot diverged from clean prefix application")
	}
}

func TestExactlyOnceOutOfOrder(t *testing.T) {
	g := testGraph(t, "KGS")
	batches := datagen.UpdateStream(g, 5, 10, 8, 0.3)
	want := graphBytes(t, scratchBuild(g, batches))

	m := evolve.NewMutable(g)
	// Deliver 2 before 1: buffered.
	if res, _ := m.Submit(batches[1]); res.Status != evolve.StatusBuffered {
		t.Fatalf("batch 2 before 1: status %s, want buffered", res.Status)
	}
	if m.Applied() != 0 || m.PendingBatches() != 1 {
		t.Fatalf("applied=%d pending=%d, want 0/1", m.Applied(), m.PendingBatches())
	}
	// Duplicate of the buffered batch: dropped.
	if res, _ := m.Submit(batches[1]); res.Status != evolve.StatusDuplicate {
		t.Fatalf("duplicate buffered: status %s, want duplicate", res.Status)
	}
	// Gap fill applies 1 AND the buffered 2.
	res, err := m.Submit(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evolve.StatusApplied || res.Epoch != 2 || len(res.Applied) != 2 {
		t.Fatalf("gap fill: status=%s epoch=%d applied=%d, want applied/2/2",
			res.Status, res.Epoch, len(res.Applied))
	}
	if res.Applied[0].Batch.Seq != 1 || res.Applied[1].Batch.Seq != 2 {
		t.Fatal("gap fill applied batches out of order")
	}
	// Duplicate of an already applied batch: dropped.
	if res, _ := m.Submit(batches[0]); res.Status != evolve.StatusDuplicate {
		t.Fatalf("duplicate applied: status %s, want duplicate", res.Status)
	}
	if m.Duplicates() != 2 {
		t.Fatalf("Duplicates() = %d, want 2", m.Duplicates())
	}
	// Shuffle the rest: 5,4,3 then 6..10 in order, with re-deliveries.
	for _, i := range []int{4, 3, 2, 4, 2} {
		if _, err := m.Submit(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches[5:] {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	if m.Applied() != 10 || m.PendingBatches() != 0 {
		t.Fatalf("applied=%d pending=%d, want 10/0", m.Applied(), m.PendingBatches())
	}
	if got := graphBytes(t, m.Compact().Base()); !bytes.Equal(got, want) {
		t.Fatal("out-of-order delivery diverged from clean in-order application")
	}
}

func TestSubmitValidation(t *testing.T) {
	g := testGraph(t, "KGS")
	m := evolve.NewMutable(g)
	if _, err := m.Submit(evolve.Batch{Seq: 0}); !errors.Is(err, evolve.ErrBadBatch) {
		t.Fatalf("zero seq: err = %v, want ErrBadBatch", err)
	}
	n := graph.VertexID(g.NumVertices())
	_, err := m.Submit(evolve.Batch{Seq: 1, Ops: []evolve.Op{evolve.Insert(0, n)}})
	if !errors.Is(err, evolve.ErrBadOp) {
		t.Fatalf("out-of-range op: err = %v, want ErrBadOp", err)
	}
	if m.Applied() != 0 {
		t.Fatal("invalid batch advanced the epoch")
	}
	// Self-loops are silently dropped, matching builder semantics.
	res, err := m.Submit(evolve.Batch{Seq: 1, Ops: []evolve.Op{evolve.Insert(3, 3)}})
	if err != nil || res.Status != evolve.StatusApplied {
		t.Fatalf("self-loop batch: %v / %v", res, err)
	}
	if got := m.Snapshot().NumEdges(); got != g.NumEdges() {
		t.Fatalf("self-loop changed edge count: %d != %d", got, g.NumEdges())
	}
}

func TestNoOpMutationsAreIdempotent(t *testing.T) {
	g := testGraph(t, "KGS")
	m := evolve.NewMutable(g)
	var u, v graph.VertexID = -1, -1
	for vi := 0; vi < g.NumVertices(); vi++ {
		if g.OutDegree(graph.VertexID(vi)) > 0 {
			u = graph.VertexID(vi)
			v = g.Out(u)[0]
			break
		}
	}
	if u < 0 {
		t.Skip("no edges")
	}
	// Inserting a present edge and deleting an absent one change nothing.
	var w graph.VertexID
	for w = 0; int(w) < g.NumVertices(); w++ {
		if w != u && !g.HasEdge(u, w) {
			break
		}
	}
	if _, err := m.Submit(evolve.Batch{Seq: 1, Ops: []evolve.Op{
		evolve.Insert(u, v), evolve.Delete(u, w),
	}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().NumEdges(); got != g.NumEdges() {
		t.Fatalf("no-op ops changed edge count: %d != %d", got, g.NumEdges())
	}
	if !bytes.Equal(graphBytes(t, m.Compact().Base()), graphBytes(t, g)) {
		t.Fatal("no-op batch changed the compacted graph")
	}
}

func TestSnapshotAdjacencyViews(t *testing.T) {
	g := testGraph(t, "Citation")
	m := evolve.NewMutable(g)
	batches := datagen.UpdateStream(g, 13, 8, 8, 0.3)
	for _, b := range batches {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	want := snap.Materialize()
	n := g.NumVertices()
	for vi := 0; vi < n; vi++ {
		v := graph.VertexID(vi)
		if !equalIDs(snap.Out(v), want.Out(v)) {
			t.Fatalf("Out(%d) overlay view diverged from materialised CSR", v)
		}
		if !equalIDs(snap.In(v), want.In(v)) {
			t.Fatalf("In(%d) overlay view diverged from materialised CSR", v)
		}
	}
}

func TestSnapshotBFSAndCertificate(t *testing.T) {
	g := testGraph(t, "KGS")
	m := evolve.NewMutable(g)
	for _, b := range datagen.UpdateStream(g, 17, 6, 8, 0.3) {
		if _, err := m.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	mat := snap.Materialize()
	src := graph.VertexID(1)
	levels, visited, _ := snap.BFS(src)
	if err := evolve.CheckBFS(snap, src, levels); err != nil {
		t.Fatalf("CheckBFS rejected a correct traversal: %v", err)
	}
	// Levels must match a plain BFS over the materialised CSR.
	wantLevels, wantVisited, _ := evolve.NewMutable(mat).Snapshot().BFS(src)
	if visited != wantVisited {
		t.Fatalf("visited %d != %d", visited, wantVisited)
	}
	for i := range levels {
		if levels[i] != wantLevels[i] {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], wantLevels[i])
		}
	}
	// A corrupted level must fail the certificate.
	bad := make([]int32, len(levels))
	copy(bad, levels)
	for i := range bad {
		if bad[i] > 0 {
			bad[i] += 3
			break
		}
	}
	if err := evolve.CheckBFS(snap, src, bad); err == nil {
		t.Fatal("CheckBFS accepted corrupted levels")
	}
}

func equalIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
