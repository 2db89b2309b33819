package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func buildPath(n int, directed bool) *Graph {
	b := NewBuilder(n, directed)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	g := b.Build()

	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 5 {
		t.Fatalf("NumEdges = %d, want 5", got)
	}
	if g.Directed() {
		t.Fatal("graph should be undirected")
	}
	if got := g.Degree(0); got != 3 {
		t.Fatalf("Degree(0) = %d, want 3", got)
	}
	wantAdj := []VertexID{1, 2, 3}
	if !reflect.DeepEqual(g.Out(0), wantAdj) {
		t.Fatalf("Out(0) = %v, want %v", g.Out(0), wantAdj)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // dup
	b.AddEdge(1, 1) // self loop
	b.AddEdge(1, 2)
	g := b.Build()
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + no self-loops)", got)
	}
}

func TestBuilderUndirectedSymmetricInput(t *testing.T) {
	// Input containing both (u,v) and (v,u) must still produce one edge.
	b := NewBuilder(2, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
	if got := g.Degree(0); got != 1 {
		t.Fatalf("Degree(0) = %d, want 1", got)
	}
}

func TestDirectedInOut(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(1, 0)
	g := b.Build()

	if got := g.OutDegree(1); got != 1 {
		t.Fatalf("OutDegree(1) = %d, want 1", got)
	}
	if got := g.InDegree(1); got != 2 {
		t.Fatalf("InDegree(1) = %d, want 2", got)
	}
	if want := []VertexID{0, 2}; !reflect.DeepEqual(g.In(1), want) {
		t.Fatalf("In(1) = %v, want %v", g.In(1), want)
	}
	if got := g.Degree(1); got != 3 {
		t.Fatalf("Degree(1) = %d, want 3", got)
	}
}

func TestHasEdge(t *testing.T) {
	g := buildPath(5, true)
	if !g.HasEdge(1, 2) {
		t.Fatal("HasEdge(1,2) = false, want true")
	}
	if g.HasEdge(2, 1) {
		t.Fatal("HasEdge(2,1) = true, want false (directed)")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("HasEdge(0,4) = true, want false")
	}
}

func TestEdgesIteration(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 2)
	g := b.Build()
	var got []Edge
	g.Edges(func(e Edge) { got = append(got, e) })
	want := []Edge{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestLinkDensityAndAvgDegree(t *testing.T) {
	// Complete undirected graph on 4 vertices: 6 edges, density 1.
	b := NewBuilder(4, false)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(VertexID(i), VertexID(j))
		}
	}
	g := b.Build()
	if got := g.LinkDensity(); got != 1.0 {
		t.Fatalf("LinkDensity = %v, want 1.0", got)
	}
	if got := g.AvgDegree(); got != 3.0 {
		t.Fatalf("AvgDegree = %v, want 3.0", got)
	}

	// Directed cycle on 4 vertices: 4 arcs, density 4/12.
	b2 := NewBuilder(4, true)
	for i := 0; i < 4; i++ {
		b2.AddEdge(VertexID(i), VertexID((i+1)%4))
	}
	g2 := b2.Build()
	if got, want := g2.LinkDensity(), 4.0/12.0; got != want {
		t.Fatalf("directed LinkDensity = %v, want %v", got, want)
	}
	if got := g2.AvgDegree(); got != 1.0 {
		t.Fatalf("directed AvgDegree = %v, want 1.0 (avg out-degree)", got)
	}
}

func TestLCCTriangle(t *testing.T) {
	// Triangle: every vertex has LCC 1.
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	for v := VertexID(0); v < 3; v++ {
		if got := g.LCC(v); got != 1.0 {
			t.Fatalf("LCC(%d) = %v, want 1.0", v, got)
		}
	}
	if got := g.AvgLCC(); got != 1.0 {
		t.Fatalf("AvgLCC = %v, want 1.0", got)
	}
}

func TestLCCPath(t *testing.T) {
	g := buildPath(4, false)
	if got := g.AvgLCC(); got != 0 {
		t.Fatalf("path AvgLCC = %v, want 0", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	labels := g.ConnectedComponents()
	want := []VertexID{0, 0, 0, 3, 3, 5}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	lc := g.LargestComponent()
	if !reflect.DeepEqual(lc, []VertexID{0, 1, 2}) {
		t.Fatalf("LargestComponent = %v", lc)
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// 0 -> 1 <- 2: weakly connected.
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build()
	labels := g.ConnectedComponents()
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("weak connectivity labels = %v, want all equal", labels)
	}
}

func TestSubgraph(t *testing.T) {
	b := NewBuilder(5, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 4)
	g := b.Build()
	sub, ids := g.Subgraph([]VertexID{0, 1, 4})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub V = %d, want 3", sub.NumVertices())
	}
	if sub.NumEdges() != 2 { // 0-1 and 0-4
		t.Fatalf("sub E = %d, want 2", sub.NumEdges())
	}
	if !reflect.DeepEqual(ids, []VertexID{0, 1, 4}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestTextRoundTripUndirected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != TextSize(g) {
		t.Fatalf("TextSize = %d, actual = %d", TextSize(g), buf.Len())
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, g, g2)
}

func TestTextRoundTripDirected(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 0)
	b.AddEdge(2, 4)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != TextSize(g) {
		t.Fatalf("TextSize = %d, actual = %d", TextSize(g), buf.Len())
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphEqual(t, g, g2)
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "hello\n"},
		{"bad directivity", "V 3 sideways\n"},
		{"bad id", "V 2 undirected\nx\t1\n"},
		{"id out of range", "V 2 undirected\n5\t0\n"},
		{"neighbour out of range", "V 2 undirected\n0\t9\n"},
		{"wrong fields directed", "V 2 directed\n0\t1\n"},
		{"bad neighbour", "V 2 undirected\n0\tzap\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadText(bytes.NewBufferString(tc.in)); err == nil {
				t.Fatalf("ReadText(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func assertGraphEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Directed() != b.Directed() {
		t.Fatalf("directivity mismatch")
	}
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("V: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("E: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := VertexID(0); v < VertexID(a.NumVertices()); v++ {
		if !reflect.DeepEqual(a.Out(v), b.Out(v)) {
			t.Fatalf("Out(%d): %v vs %v", v, a.Out(v), b.Out(v))
		}
	}
}

// randomGraph builds a deterministic pseudo-random graph for property
// tests.
func randomGraph(seed int64, n, e int, directed bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, directed)
	for i := 0; i < e; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.Build()
}

func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%50 + 2
		e := int(rawE) % 300
		g := randomGraph(seed, n, e, directed)
		// Adjacency sorted and deduplicated, within range.
		for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
			out := g.Out(v)
			for i, x := range out {
				if x < 0 || int(x) >= n {
					return false
				}
				if i > 0 && out[i-1] >= x {
					return false
				}
				if x == v {
					return false // no self loops
				}
			}
		}
		// Undirected symmetry.
		if !directed {
			for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
				for _, u := range g.Out(v) {
					if !g.HasEdge(u, v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%40 + 2
		e := int(rawE) % 200
		g := randomGraph(seed, n, e, directed)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		if int64(buf.Len()) != TextSize(g) {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if g.NumEdges() != g2.NumEdges() || g.NumVertices() != g2.NumVertices() {
			return false
		}
		for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
			if !reflect.DeepEqual(g.Out(v), g2.Out(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLCCRange(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%30 + 3
		e := int(rawE) % 250
		g := randomGraph(seed, n, e, directed)
		for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
			lcc := g.LCC(v)
			if lcc < 0 || lcc > 1 {
				return false
			}
		}
		avg := g.AvgLCC()
		return avg >= 0 && avg <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComponentsLabelIsMinimum(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16) bool {
		n := int(rawN)%40 + 2
		e := int(rawE) % 120
		g := randomGraph(seed, n, e, false)
		labels := g.ConnectedComponents()
		// Every label must be the minimum vertex ID of its component.
		groups := map[VertexID][]VertexID{}
		for v, l := range labels {
			groups[l] = append(groups[l], VertexID(v))
		}
		for l, vs := range groups {
			minV := vs[0]
			for _, v := range vs {
				if v < minV {
					minV = v
				}
			}
			if l != minV {
				return false
			}
		}
		// Neighbours share labels.
		for v := VertexID(0); v < VertexID(n); v++ {
			for _, u := range g.Out(v) {
				if labels[u] != labels[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConnectedComponentsBothPaths pins the single-worker and the
// concurrent union-find to a traversal oracle on graphs of several
// chunks, sparse enough to leave many components.
func TestConnectedComponentsBothPaths(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomGraph(3, 3*metricChunk+5, 3*metricChunk, directed)
		want := make([]VertexID, g.NumVertices())
		for i := range want {
			want[i] = -1
		}
		for s := VertexID(0); s < VertexID(g.NumVertices()); s++ {
			if want[s] >= 0 {
				continue
			}
			want[s] = s
			for queue := []VertexID{s}; len(queue) > 0; queue = queue[1:] {
				u := queue[0]
				for _, v := range append(slices.Clone(g.Out(u)), g.In(u)...) {
					if want[v] < 0 {
						want[v] = s
						queue = append(queue, v)
					}
				}
			}
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := g.ConnectedComponents()
			runtime.GOMAXPROCS(prev)
			if !slices.Equal(got, want) {
				t.Fatalf("directed=%v GOMAXPROCS=%d: labels differ from the traversal oracle", directed, procs)
			}
		}
	}
}

func TestMaxDegree(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	if got := g.MaxDegree(); got != 3 {
		t.Fatalf("MaxDegree = %d, want 3", got)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := buildPath(10, true)
	if g.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint should be positive")
	}
}

func TestLargestComponentDeterministic(t *testing.T) {
	// Two equal-size components: ties broken by smaller label.
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	lc := g.LargestComponent()
	sort.Slice(lc, func(i, j int) bool { return lc[i] < lc[j] })
	if !reflect.DeepEqual(lc, []VertexID{0, 1}) {
		t.Fatalf("LargestComponent = %v, want [0 1]", lc)
	}
}
