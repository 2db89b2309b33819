package algo

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func triangle() *graph.Graph {
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	return b.Build()
}

func twoComponents() *graph.Graph {
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	return b.Build()
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(42)
	if p.CDHopAttenuation != 0.1 || p.CDMaxIterations != 5 {
		t.Fatalf("CD params wrong: %+v", p)
	}
	if p.EVOForwardProb != 0.5 || p.EVOBackwardProb != 0.5 || p.EVOIterations != 6 || p.EVOGrowth != 0.001 {
		t.Fatalf("EVO params wrong: %+v", p)
	}
}

func TestPickSourceDeterministic(t *testing.T) {
	g := twoComponents()
	a, b := PickSource(g, 7), PickSource(g, 7)
	if a != b {
		t.Fatal("PickSource not deterministic")
	}
	if int(a) >= g.NumVertices() {
		t.Fatalf("source %d out of range", a)
	}
}

func TestRefStats(t *testing.T) {
	s := RefStats(triangle())
	if s.Vertices != 3 || s.Edges != 3 || s.AvgLCC != 1.0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRefBFS(t *testing.T) {
	r := RefBFS(twoComponents(), 0)
	if r.Visited != 3 || r.Iterations != 2 {
		t.Fatalf("bfs = %+v", r)
	}
	if len(r.Levels) != 6 {
		t.Fatalf("levels cover %d vertices, want all 6", len(r.Levels))
	}
}

func TestRefConn(t *testing.T) {
	r := RefConn(twoComponents())
	if r.Components != 2 {
		t.Fatalf("components = %d", r.Components)
	}
	if r.Labels[2] != 0 || r.Labels[5] != 3 {
		t.Fatalf("labels = %v", r.Labels)
	}
	// Chains of length 3: labels propagate 2 hops + quiescence check.
	if r.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", r.Iterations)
	}
}

func TestRefConnDirectedWeak(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1) // only weakly connected
	r := RefConn(b.Build())
	if r.Components != 1 {
		t.Fatalf("weak components = %d, want 1", r.Components)
	}
}

func TestChooseLabel(t *testing.T) {
	votes := []LabelScore{{1, 0.5}, {2, 0.8}, {1, 0.6}}
	l, s, ok := ChooseLabel(votes, 0.1)
	if !ok || l != 1 {
		t.Fatalf("label = %d (sum 1.1 beats 0.8)", l)
	}
	if math.Abs(s-0.5) > 1e-12 { // best sender for label 1 is 0.6, minus 0.1
		t.Fatalf("score = %v, want 0.5", s)
	}

	// Tie: smaller label wins.
	l, _, _ = ChooseLabel([]LabelScore{{5, 1.0}, {3, 1.0}}, 0)
	if l != 3 {
		t.Fatalf("tie label = %d, want 3", l)
	}

	// No votes.
	if _, _, ok := ChooseLabel(nil, 0.1); ok {
		t.Fatal("empty votes should report !ok")
	}

	// Score floors at zero.
	_, s, _ = ChooseLabel([]LabelScore{{1, 0.05}}, 0.1)
	if s != 0 {
		t.Fatalf("score = %v, want 0 floor", s)
	}
}

func TestChooseLabelOrderInsensitive(t *testing.T) {
	a := []LabelScore{{1, 0.3}, {2, 0.4}, {1, 0.1}, {2, 0.2}, {3, 0.9}}
	b := []LabelScore{{3, 0.9}, {2, 0.2}, {1, 0.1}, {2, 0.4}, {1, 0.3}}
	la, sa, _ := ChooseLabel(append([]LabelScore(nil), a...), 0.1)
	lb, sb, _ := ChooseLabel(append([]LabelScore(nil), b...), 0.1)
	if la != lb || sa != sb {
		t.Fatalf("order-sensitive: (%d,%v) vs (%d,%v)", la, sa, lb, sb)
	}
}

func TestRefCDCommunityStructure(t *testing.T) {
	// Two dense cliques with one bridge: CD should find two
	// communities.
	b := graph.NewBuilder(10, false)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			b.AddEdge(graph.VertexID(i+5), graph.VertexID(j+5))
		}
	}
	b.AddEdge(4, 5)
	g := b.Build()
	r := RefCD(g, DefaultParams(1))
	if r.Communities < 1 || r.Communities > 3 {
		t.Fatalf("communities = %d", r.Communities)
	}
	// Vertices within the same clique (excluding the bridge endpoints)
	// share labels.
	if r.Labels[0] != r.Labels[1] || r.Labels[1] != r.Labels[2] {
		t.Fatalf("clique 1 labels differ: %v", r.Labels[:5])
	}
	if r.Labels[6] != r.Labels[7] || r.Labels[7] != r.Labels[8] {
		t.Fatalf("clique 2 labels differ: %v", r.Labels[5:])
	}
	if r.Iterations > DefaultParams(1).CDMaxIterations {
		t.Fatalf("iterations = %d", r.Iterations)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(1, 2), NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Rand not deterministic")
		}
	}
	c := NewRand(1, 3)
	same := true
	a = NewRand(1, 2)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams should differ")
	}
}

func TestRandBounds(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		x := r.Next()
		if x < 0 || x >= 1 {
			t.Fatalf("Next() = %v", x)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn = %d", n)
		}
	}
	if NewRand(1).Intn(0) != 0 {
		t.Fatal("Intn(0) should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(5)
	const trials = 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Geometric(2.0)
	}
	mean := float64(sum) / trials
	if mean < 1.7 || mean > 2.3 {
		t.Fatalf("geometric mean = %v, want ≈ 2", mean)
	}
	if r.Geometric(0) != 0 {
		t.Fatal("Geometric(0) should be 0")
	}
}

func TestForestFireBurnDeterministic(t *testing.T) {
	g := triangle()
	nbrs := func(v graph.VertexID) (out, in []graph.VertexID) {
		if int(v) < g.NumVertices() {
			return g.Out(v), g.In(v)
		}
		return nil, nil
	}
	p := DefaultParams(3)
	a := ForestFireBurn(3, 3, p, nbrs)
	b := ForestFireBurn(3, 3, p, nbrs)
	if len(a) != len(b) {
		t.Fatal("burn not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("burn edges differ")
		}
	}
	if len(a) < 1 || a[0].Src != 3 {
		t.Fatalf("burn = %v, want ambassador edge first", a)
	}
}

func TestRefEVOGrowth(t *testing.T) {
	// 1000-vertex ring: 0.1% growth = 1 vertex per iteration, 6 iters.
	b := graph.NewBuilder(1000, false)
	for i := 0; i < 1000; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%1000))
	}
	g := b.Build()
	r := RefEVO(g, DefaultParams(11))
	if r.NewVertices != 6 {
		t.Fatalf("NewVertices = %d, want 6", r.NewVertices)
	}
	if r.NewEdges < 6 {
		t.Fatalf("NewEdges = %d, want >= 6 (at least the ambassador links)", r.NewEdges)
	}
	if r.FinalV != 1006 {
		t.Fatalf("FinalV = %d", r.FinalV)
	}
	if r.FinalE != g.NumEdges()+int64(r.NewEdges) {
		t.Fatalf("FinalE = %d", r.FinalE)
	}
}

func TestOverlayNeighbors(t *testing.T) {
	g := triangle()
	ov := NewOverlay(g)
	id := ov.AddVertex()
	if id != 3 {
		t.Fatalf("AddVertex = %d", id)
	}
	ov.AddEdges([]graph.Edge{{Src: 3, Dst: 0}})
	out, _ := ov.Neighbors(3)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("out(3) = %v", out)
	}
	_, in := ov.Neighbors(0)
	found := false
	for _, u := range in {
		if u == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("in(0) = %v, want to contain 3", in)
	}
	if ov.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", ov.NumVertices())
	}
}

// TestOverlayRewind: rewinding to a mark leaves the overlay as it was
// at the mark, and regrowing from there equals growing once.
func TestOverlayRewind(t *testing.T) {
	grow := func(ov *Overlay, edges ...graph.Edge) {
		ov.AddVertex()
		ov.AddEdges(edges)
	}
	once, twice := NewOverlay(triangle()), NewOverlay(triangle())
	grow(once, graph.Edge{Src: 3, Dst: 0})
	grow(twice, graph.Edge{Src: 3, Dst: 0})
	vertices, edges := twice.Mark()
	grow(twice, graph.Edge{Src: 4, Dst: 0}, graph.Edge{Src: 4, Dst: 3})
	twice.Rewind(vertices, edges)
	if twice.NumVertices() != 4 || !reflect.DeepEqual(twice.Result(), once.Result()) {
		t.Fatalf("rewound to %d vertices, %+v; want 4, %+v", twice.NumVertices(), twice.Result(), once.Result())
	}
	for v := graph.VertexID(0); v < 5; v++ {
		gotOut, gotIn := twice.Neighbors(v)
		wantOut, wantIn := once.Neighbors(v)
		if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
			t.Fatalf("vertex %d: neighbours %v/%v after rewind, want %v/%v", v, gotOut, gotIn, wantOut, wantIn)
		}
	}
	grow(once, graph.Edge{Src: 4, Dst: 1})
	grow(twice, graph.Edge{Src: 4, Dst: 1})
	if !reflect.DeepEqual(twice.Result(), once.Result()) {
		t.Fatalf("regrown %+v, want %+v", twice.Result(), once.Result())
	}
}

// pathGraph returns the directed path 0 → 1 → … → n-1.
func pathGraph(n int, directed bool) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VertexID(v-1), graph.VertexID(v))
	}
	return b.Build()
}

func TestVertexRecSizeAndViews(t *testing.T) {
	g := pathGraph(4, true)
	adj := NewAdjacency(g)
	r := adj.Vertex(1, false)
	if r.Kind != KindVertex || r.Dist != -1 || r.Label != 1 {
		t.Fatalf("vertex record = %+v", r)
	}
	if r.Size() != 1*5+1*5+16 {
		t.Fatalf("Size = %d", r.Size())
	}
	if out, in := adj.Out(r), adj.In(r); len(out) != 1 || out[0] != 2 || len(in) != 1 || in[0] != 0 {
		t.Fatalf("lists = %v, %v", out, in)
	}
	und := NewAdjacency(pathGraph(4, false)).Vertex(1, false)
	if und.In.Len != 0 || und.Out.Len != 2 || und.Size() != 2*5+16 {
		t.Fatalf("undirected record = %+v (size %d): want both neighbours out, none in", und, und.Size())
	}
	if l := ListRec(r.Out); l.Size() != 1*5+4 || len(adj.Out(l)) != 1 {
		t.Fatalf("list record %+v names %v", l, adj.Out(l))
	}
}

// TestRecSizesMatchMessages pins each message kind's size to the
// Pregel message type it mirrors, and the count record's figure.
func TestRecSizesMatchMessages(t *testing.T) {
	for _, c := range []struct {
		rec  Rec
		want int64
	}{
		{DistRec(3), DistMsg(3).Size()},
		{WDistRec(3), WDistMsg(3).Size()},
		{LabelRec(4, 0.5), LabelMsg{Label: 4, Score: 0.5}.Size()},
		{EdgeRec(graph.Edge{Src: 1, Dst: 2}), EdgeMsg{Src: 1, Dst: 2}.Size()},
		{CountRec(1, 2, 0.5), 24},
	} {
		if got := c.rec.Size(); got != c.want {
			t.Errorf("%+v: Size = %d, want %d", c.rec, got, c.want)
		}
	}
	if v, e, l := CountRec(3, 1<<40, 0.25).Count(); v != 3 || e != 1<<40 || l != 0.25 {
		t.Errorf("Count() = %d, %d, %v", v, e, l)
	}
	if e := EdgeRec(graph.Edge{Src: 5, Dst: 9}).Edge(); e != (graph.Edge{Src: 5, Dst: 9}) {
		t.Errorf("Edge() = %v", e)
	}
}

// TestAdjacencyExtend checks that an extended record names its old
// list followed by the additions, and that the old record still names
// its own list.
func TestAdjacencyExtend(t *testing.T) {
	adj := NewAdjacency(pathGraph(4, false))
	old := adj.Vertex(1, false)
	grown := adj.Extend(old, []graph.VertexID{3}, []graph.VertexID{0})
	if got := adj.Out(grown); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("extended out-list = %v, want [0 2 3]", got)
	}
	if got := adj.In(grown); len(got) != 1 || got[0] != 0 {
		t.Fatalf("extended in-list = %v, want [0]", got)
	}
	if got := adj.Out(old); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("old record now names %v", got)
	}
	if same := adj.Extend(old, nil, nil); same != old {
		t.Fatalf("empty Extend changed the record: %+v", same)
	}
}

// TestAdjacencyExtendConcurrent extends many records from several
// goroutines at once, as EVO's parallel merge reducers do: every
// grown record names its own old list followed by its own additions.
func TestAdjacencyExtendConcurrent(t *testing.T) {
	g := pathGraph(64, true)
	adj := NewAdjacency(g)
	grown := make([]Rec, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w; v < 64; v += 4 {
				r := adj.Vertex(graph.VertexID(v), false)
				grown[v] = adj.Extend(r, []graph.VertexID{graph.VertexID(v), graph.VertexID(v)}, []graph.VertexID{graph.VertexID(v)})
			}
		}(w)
	}
	wg.Wait()
	for v, r := range grown {
		out, in := adj.Out(r), adj.In(r)
		want := append(append([]graph.VertexID{}, g.Out(graph.VertexID(v))...), graph.VertexID(v), graph.VertexID(v))
		if !slices.Equal(out, want) {
			t.Fatalf("vertex %d: out-list %v, want %v", v, out, want)
		}
		if wantIn := append(append([]graph.VertexID{}, g.In(graph.VertexID(v))...), graph.VertexID(v)); !slices.Equal(in, wantIn) {
			t.Fatalf("vertex %d: in-list %v, want %v", v, in, wantIn)
		}
	}
}

// TestRecHoldsNoPointer is the design property of the generic
// engines' record: nothing in it is a pointer or holds one, so a
// dataset of records is never scanned by the collector and an append
// takes no write barrier. It also holds the record to 40 bytes.
func TestRecHoldsNoPointer(t *testing.T) {
	if size := reflect.TypeFor[Rec]().Size(); size > 40 {
		t.Errorf("Rec is %d bytes, want at most 40", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: Rec must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Rec", reflect.TypeFor[Rec]())
}

func TestNeighborhoodOf(t *testing.T) {
	got := NeighborhoodOf([]graph.VertexID{1, 3, 5}, []graph.VertexID{2, 3, 6})
	want := []graph.VertexID{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("neighbourhood = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbourhood = %v, want %v", got, want)
		}
	}
}

func TestLCCHelpersMatchGraphLCC(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%20 + 3
		e := int(rawE) % 100
		rng := NewRand(seed)
		b := graph.NewBuilder(n, directed)
		for i := 0; i < e; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
			var in []graph.VertexID
			if g.Directed() {
				in = g.In(v)
			}
			nbrs := NeighborhoodOf(g.Out(v), in)
			lc := AcquireLinkCounter(n, nbrs)
			var links int64
			for _, u := range nbrs {
				links += lc.Links(g.Out(u))
			}
			lc.Release()
			if math.Abs(LCCOf(links, len(nbrs))-g.LCC(v)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSizes(t *testing.T) {
	p := DefaultParams(1)
	sizes := BatchSizes(10000, p)
	if len(sizes) != 6 {
		t.Fatalf("len = %d", len(sizes))
	}
	for _, s := range sizes {
		if s != 10 {
			t.Fatalf("batch = %d, want 10 (0.1%% of 10000)", s)
		}
	}
	tiny := BatchSizes(5, p)
	if tiny[0] != 1 {
		t.Fatalf("tiny batch = %d, want floor 1", tiny[0])
	}
}

func TestCountLabels(t *testing.T) {
	if got := CountLabels([]graph.VertexID{1, 1, 2, 3, 3}); got != 3 {
		t.Fatalf("CountLabels = %d", got)
	}
	if got := CountLabels(nil); got != 0 {
		t.Fatalf("CountLabels(nil) = %d", got)
	}
}

func TestValidateBFSAcceptsReference(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%40 + 2
		e := int(rawE) % 200
		rng := NewRand(seed)
		b := graph.NewBuilder(n, directed)
		for i := 0; i < e; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		src := graph.VertexID(rng.Intn(n))
		res := RefBFS(g, src)
		return ValidateBFS(g, src, &res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBFSRejectsCorruption(t *testing.T) {
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	res := RefBFS(g, 0)

	corrupt := func(mutate func(r *BFSResult)) error {
		c := BFSResult{
			Levels:     append([]int32(nil), res.Levels...),
			Visited:    res.Visited,
			Iterations: res.Iterations,
		}
		mutate(&c)
		return ValidateBFS(g, 0, &c)
	}

	if err := corrupt(func(r *BFSResult) { r.Levels[0] = 3 }); err == nil {
		t.Fatal("bad source level accepted")
	}
	if err := corrupt(func(r *BFSResult) { r.Levels[3] = 9 }); err == nil {
		t.Fatal("level jump accepted")
	}
	if err := corrupt(func(r *BFSResult) { r.Levels[4] = -1 }); err == nil {
		t.Fatal("unreached vertex with reached neighbour accepted")
	}
	if err := corrupt(func(r *BFSResult) { r.Visited = 99 }); err == nil {
		t.Fatal("wrong Visited accepted")
	}
	if err := corrupt(func(r *BFSResult) { r.Iterations = 99 }); err == nil {
		t.Fatal("wrong Iterations accepted")
	}
	if err := ValidateBFS(g, 0, &BFSResult{Levels: []int32{0}}); err == nil {
		t.Fatal("wrong length accepted")
	}
}
