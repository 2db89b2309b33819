package partition

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// testGraph builds a reproducible random graph; skewDegree makes one
// vertex a hub touching everything (the adversarial distribution the
// streaming partitioners must balance around).
func testGraph(n int, edges int, directed, skewDegree bool, seed int64) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edges; i++ {
		u := graph.VertexID(rng.Intn(n))
		if skewDegree && i%2 == 0 {
			u = 0
		}
		v := graph.VertexID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestNamesAndByName(t *testing.T) {
	want := []string{Hash, Range, EdgeCut, VertexCut, Grid}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	g := testGraph(10, 20, true, false, 1)
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got := p.Partition(g, 2).Strategy; got != name {
			t.Fatalf("ByName(%q) partitions as %q", name, got)
		}
	}
	if _, err := ByName("metis"); err == nil {
		t.Fatal("ByName accepted an unknown strategy")
	}
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(10, 20, true, false, 1)
	if _, err := Build("nope", g, 4); err == nil {
		t.Fatal("Build accepted an unknown strategy")
	}
	if _, err := Build(Hash, g, 0); err == nil {
		t.Fatal("Build accepted shards < 1")
	}
}

// assertInvariants checks the structural contract every strategy must
// hold: each vertex owned by exactly one shard, members lists that
// tile the vertex set, stats that sum to the global totals, and a
// replication factor of at least one.
func assertInvariants(t *testing.T, g *graph.Graph, p *Partitioning) {
	t.Helper()
	n := g.NumVertices()
	if p.NumVertices() != n {
		t.Fatalf("%s: NumVertices = %d, want %d", p.Strategy, p.NumVertices(), n)
	}
	seen := make([]bool, n)
	for s, members := range p.Members {
		for _, v := range members {
			if seen[v] {
				t.Fatalf("%s: vertex %d in more than one shard", p.Strategy, v)
			}
			seen[v] = true
			if int(p.Owner[v]) != s {
				t.Fatalf("%s: vertex %d in members[%d] but Owner=%d", p.Strategy, v, s, p.Owner[v])
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			t.Fatalf("%s: vertex %d unassigned", p.Strategy, v)
		}
		if o := p.Owner[v]; o < 0 || int(o) >= p.Shards {
			t.Fatalf("%s: Owner[%d] = %d out of range", p.Strategy, v, o)
		}
	}

	st := p.ComputeStats(g)
	var vsum int
	for _, c := range st.ShardVertices {
		vsum += c
	}
	if vsum != n {
		t.Fatalf("%s: ShardVertices sums to %d, want %d", p.Strategy, vsum, n)
	}
	var asum int64
	for _, c := range st.ShardArcs {
		asum += c
	}
	if asum != g.AdjSize() {
		t.Fatalf("%s: ShardArcs sums to %d, want %d", p.Strategy, asum, g.AdjSize())
	}
	if st.Arcs > 0 && (st.CutFraction < 0 || st.CutFraction > 1) {
		t.Fatalf("%s: CutFraction = %v", p.Strategy, st.CutFraction)
	}
	if n > 0 && st.ReplicationFactor < 1 {
		t.Fatalf("%s: ReplicationFactor = %v < 1", p.Strategy, st.ReplicationFactor)
	}
	for _, c := range p.ReplicaCounts(g) {
		if c < 1 {
			t.Fatalf("%s: replica count %d < 1", p.Strategy, c)
		}
	}
}

func TestInvariantsEveryStrategy(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, skew := range []bool{false, true} {
			g := testGraph(200, 900, directed, skew, 7)
			for _, name := range Names() {
				for _, shards := range []int{1, 2, 4, 8, 64, 100} {
					p, err := Build(name, g, shards)
					if err != nil {
						t.Fatalf("%s/%d: %v", name, shards, err)
					}
					assertInvariants(t, g, p)
				}
			}
		}
	}
}

// TestVertexCutEveryEdgeOnce: the vertex-cut family assigns every
// stored arc to exactly one machine, deterministically.
func TestVertexCutEveryEdgeOnce(t *testing.T) {
	g := testGraph(150, 600, true, true, 3)
	for _, name := range []string{VertexCut, Grid} {
		p, err := Build(name, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsVertexCut() {
			t.Fatalf("%s: IsVertexCut = false", name)
		}
		counts := make([]int64, 8)
		var total int64
		g.Edges(func(e graph.Edge) {
			s := p.edgeShard(e.Src, e.Dst)
			if s < 0 || s >= 8 {
				t.Fatalf("%s: edge (%d,%d) on shard %d", name, e.Src, e.Dst, s)
			}
			if s != p.edgeShard(e.Src, e.Dst) {
				t.Fatalf("%s: edge placement not deterministic", name)
			}
			counts[s]++
			total++
		})
		if total == 0 {
			t.Fatal("no edges visited")
		}
	}
}

// TestEdgeCutBalance: LDG respects its capacity slack on a skewed
// degree distribution — no shard takes more than ~2x the mean
// weighted load.
func TestEdgeCutBalance(t *testing.T) {
	g := testGraph(300, 2000, false, true, 11)
	p, err := Build(EdgeCut, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := p.ComputeStats(g)
	if st.LoadSkew > 2.0 {
		t.Fatalf("edge-cut load skew %.2f too high", st.LoadSkew)
	}
}

// TestEdgeCutBeatsHashOnCut: on a community-free random graph the two
// are comparable, but the streaming heuristic must never be *worse*
// than random placement by more than noise — and on the locally dense
// graphs the datasets model it should cut strictly fewer arcs.
func TestEdgeCutBeatsHashOnCut(t *testing.T) {
	// Locality: ring-of-cliques, the classic partitionable topology.
	b := graph.NewBuilder(256, false)
	for c := 0; c < 16; c++ {
		base := graph.VertexID(c * 16)
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
			}
		}
		b.AddEdge(base, graph.VertexID((c*16+16)%256))
	}
	g := b.Build()
	hash, _ := Build(Hash, g, 4)
	cut, _ := Build(EdgeCut, g, 4)
	hs, cs := hash.ComputeStats(g), cut.ComputeStats(g)
	if cs.CutArcs >= hs.CutArcs {
		t.Fatalf("edge cut (%d cut arcs) not better than hash (%d) on clustered graph",
			cs.CutArcs, hs.CutArcs)
	}
}

func TestDeterminismAcrossBuilds(t *testing.T) {
	g := testGraph(120, 500, true, false, 9)
	for _, name := range Names() {
		a, _ := Build(name, g, 8)
		b, _ := Build(name, g, 8)
		if !reflect.DeepEqual(a.Owner, b.Owner) {
			t.Fatalf("%s: Owner differs across builds", name)
		}
		if !reflect.DeepEqual(a.ComputeStats(g), b.ComputeStats(g)) {
			t.Fatalf("%s: stats differ across builds", name)
		}
	}
}

func TestOwnerOfFallback(t *testing.T) {
	g := testGraph(50, 100, true, false, 5)
	p, _ := Build(Hash, g, 4)
	if got := p.OwnerOf(10); got != int(p.Owner[10]) {
		t.Fatalf("in-range OwnerOf = %d, want %d", got, p.Owner[10])
	}
	for _, k := range []int64{-5, -1, 50, 1 << 40} {
		got := p.OwnerOf(k)
		if got < 0 || got >= 4 {
			t.Fatalf("OwnerOf(%d) = %d out of range", k, got)
		}
		if want := int(uint64(k) % 4); got != want {
			t.Fatalf("OwnerOf(%d) = %d, want mod fallback %d", k, got, want)
		}
	}
}

func TestResizeFor(t *testing.T) {
	g := testGraph(80, 300, true, false, 13)
	p, _ := Build(EdgeCut, g, 4)
	grown := p.ResizeFor(120)
	if grown.NumVertices() != 120 {
		t.Fatalf("NumVertices = %d", grown.NumVertices())
	}
	for v := 0; v < 80; v++ {
		if grown.Owner[v] != p.Owner[v] {
			t.Fatalf("vertex %d moved on resize: %d -> %d", v, p.Owner[v], grown.Owner[v])
		}
	}
	for v := 80; v < 120; v++ {
		if o := grown.Owner[v]; int(o) != v%4 {
			t.Fatalf("new vertex %d owner %d, want %d", v, o, v%4)
		}
	}
	// Shrinking (or equal) returns a valid partitioning too.
	same := p.ResizeFor(80)
	if same.NumVertices() != 80 {
		t.Fatalf("resize to same size: %d vertices", same.NumVertices())
	}
}

func TestHashPartitioningMatchesModulo(t *testing.T) {
	p := HashPartitioning(100, 7)
	for v := 0; v < 100; v++ {
		if int(p.Owner[v]) != v%7 {
			t.Fatalf("Owner[%d] = %d, want %d", v, p.Owner[v], v%7)
		}
	}
}

func TestSplitContiguous(t *testing.T) {
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	parts := SplitContiguous(items, 3)
	if len(parts) != 3 {
		t.Fatalf("len = %d", len(parts))
	}
	var flat []int
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if !reflect.DeepEqual(flat, items) {
		t.Fatalf("order not preserved: %v", flat)
	}
	// More parts than items: only non-empty splits, nothing lost.
	parts = SplitContiguous(items[:2], 5)
	total := 0
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatal("empty split emitted")
		}
		total += len(p)
	}
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
}

func TestSplitByOwner(t *testing.T) {
	items := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	parts := SplitByOwner(nil, 4, func(v int64) int { return int(v) % 4 }, items)
	if len(parts) != 4 {
		t.Fatalf("len = %d", len(parts))
	}
	total := 0
	for s, p := range parts {
		total += len(p)
		for _, v := range p {
			if int(v)%4 != s {
				t.Fatalf("item %d in bucket %d", v, s)
			}
		}
	}
	if total != len(items) {
		t.Fatalf("total = %d", total)
	}
	// Several inputs bucket as their concatenation would, in order.
	parts = SplitByOwner(nil, 4, func(v int64) int { return int(v) % 4 }, items[6:], items[:6])
	if want := []int64{8, 0, 4}; !reflect.DeepEqual(parts[0], want) {
		t.Fatalf("bucket 0 of two inputs = %v, want %v", parts[0], want)
	}
}

// TestSplitByOwnerIntoBacking checks that buckets live in a backing
// array that has room, and in a new one when it has not.
func TestSplitByOwnerIntoBacking(t *testing.T) {
	items := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	owner := func(v int64) int { return int(v) % 3 }
	backing := make([]int64, 0, len(items))
	parts := SplitByOwner(backing, 3, owner, items)
	if &parts[0][0] != &backing[:1][0] {
		t.Fatal("buckets are not in the backing array given")
	}
	if want := SplitByOwner(nil, 3, owner, items); !reflect.DeepEqual(parts, want) {
		t.Fatalf("buckets in a given array = %v, want %v", parts, want)
	}
	small := make([]int64, 0, 4)
	if parts := SplitByOwner(small, 3, owner, items); &parts[0][0] == &small[:1][0] {
		t.Fatal("buckets overran a backing array without room")
	}
}

// TestSpareConcurrent takes and gives back arrays from several
// goroutines at once, as an engine's running tasks do: no array is
// handed to two holders (each writes its own mark and reads it back).
func TestSpareConcurrent(t *testing.T) {
	var sp Spare[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := Room(sp.Get(), 16)
				for j := 0; j < 16; j++ {
					s = append(s, g)
				}
				for _, v := range s {
					if v != g {
						t.Errorf("goroutine %d read %d from an array it holds", g, v)
						return
					}
				}
				sp.Put(s)
			}
		}(g)
	}
	wg.Wait()
	if s := sp.Get(); s == nil || len(s) != 0 {
		t.Fatalf("Get after the puts = %v, want an emptied array", s)
	}
}

// TestRoom checks that Room keeps an array with room and replaces one
// without.
func TestRoom(t *testing.T) {
	s := make([]int, 3, 8)
	if r := Room(s, 8); len(r) != 0 || &r[:1][0] != &s[0] {
		t.Fatal("Room replaced an array with room")
	}
	if r := Room(s, 9); len(r) != 0 || cap(r) < 9 {
		t.Fatalf("Room(s, 9) = len %d cap %d", len(r), cap(r))
	}
}
