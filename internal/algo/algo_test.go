package algo

import (
	"math"
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

func TestVertexRecSizeAndViews(t *testing.T) {
	r := &VertexRec{Out: []graph.VertexID{1, 2}, In: []graph.VertexID{3}}
	if r.Size() != 2*5+1*5+16 {
		t.Fatalf("Size = %d", r.Size())
	}
	if got := r.Both(); len(got) != 3 {
		t.Fatalf("Both = %v", got)
	}
	und := &VertexRec{Out: []graph.VertexID{1, 2}}
	if got := und.Both(); len(got) != 2 {
		t.Fatalf("undirected Both = %v", got)
	}
	c := r.Clone()
	c.Dist = 7
	if r.Dist == 7 {
		t.Fatal("Clone shares state")
	}
}

func TestNeighborhoodOf(t *testing.T) {
	r := &VertexRec{Out: []graph.VertexID{1, 3, 5}, In: []graph.VertexID{2, 3, 6}}
	got := NeighborhoodOf(r)
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
			rec := &VertexRec{Out: g.Out(v)}
			if g.Directed() {
				rec.In = g.In(v)
			}
			nbrs := NeighborhoodOf(rec)
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
