package algo

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// gapGraph builds a deterministic random graph with a dense core (so
// direction-optimizing BFS actually exercises the bottom-up regime)
// and a sparse tail.
func gapGraph(t testing.TB, n, e int, directed bool, seed int64) *graph.Graph {
	t.Helper()
	rng := NewRand(seed)
	b := graph.NewBuilder(n, directed)
	core := n / 4
	if core < 2 {
		core = 2
	}
	for i := 0; i < e; i++ {
		var u, v int
		if i%2 == 0 { // half the edges land in the dense core
			u, v = rng.Intn(core), rng.Intn(core)
		} else {
			u, v = rng.Intn(n), rng.Intn(n)
		}
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func levelsEqual(a, b []int32) bool {
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

func TestBFSDirOptMatchesRef(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			g := gapGraph(t, 800, 6000, directed, seed)
			src := PickSource(g, seed)
			got := BFSDirOpt(g, src, GapOptions{})
			treesEqual(t, fmt.Sprintf("directed=%v seed=%d", directed, seed), got, RefBFSTree(g, src))
			if err := ValidateBFSTree(g, src, got); err != nil {
				t.Fatalf("directed=%v seed=%d: tree certificate: %v", directed, seed, err)
			}
		}
	}
}

// TestBFSDirOptWorkerDeterminism pins the cross-worker-count
// determinism contract: byte-identical distances (and parents) at
// workers 1, 2, 4, and 8.
func TestBFSDirOptWorkerDeterminism(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gapGraph(t, 3000, 24000, directed, 7)
		src := PickSource(g, 7)
		base := BFSDirOpt(g, src, GapOptions{Workers: 1})
		if err := ValidateBFSTree(g, src, base); err != nil {
			t.Fatalf("directed=%v: base tree invalid: %v", directed, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got := BFSDirOpt(g, src, GapOptions{Workers: workers})
			if !levelsEqual(got.Levels, base.Levels) {
				t.Fatalf("directed=%v workers=%d: distances differ from workers=1", directed, workers)
			}
			for v := range got.Parents {
				if got.Parents[v] != base.Parents[v] {
					t.Fatalf("directed=%v workers=%d: parent of %d differs (%d vs %d)",
						directed, workers, v, got.Parents[v], base.Parents[v])
				}
			}
			if got.Visited != base.Visited || got.Iterations != base.Iterations {
				t.Fatalf("directed=%v workers=%d: counters differ", directed, workers)
			}
		}
	}
}

func TestValidateBFSTreeRejectsCorruption(t *testing.T) {
	g := gapGraph(t, 200, 800, false, 2)
	src := PickSource(g, 2)
	base := RefBFSTree(g, src)

	corrupt := func(mutate func(c *BFSTree)) error {
		c := &BFSTree{
			BFSResult: BFSResult{
				Levels:     append([]int32(nil), base.Levels...),
				Visited:    base.Visited,
				Iterations: base.Iterations,
			},
			Parents: append([]graph.VertexID(nil), base.Parents...),
		}
		mutate(c)
		return ValidateBFSTree(g, src, c)
	}

	if err := corrupt(func(c *BFSTree) {}); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if err := corrupt(func(c *BFSTree) { c.Levels[src] = 1 }); err == nil {
		t.Fatal("bad source level accepted")
	}
	if err := corrupt(func(c *BFSTree) { c.Parents[src] = -1 }); err == nil {
		t.Fatal("bad source parent accepted")
	}
	if err := corrupt(func(c *BFSTree) {
		for v := range c.Levels {
			if graph.VertexID(v) != src && c.Levels[v] == 1 {
				c.Parents[v] = graph.VertexID(v) // self-parent, no arc
				return
			}
		}
	}); err == nil {
		t.Fatal("phantom parent arc accepted")
	}
	if err := corrupt(func(c *BFSTree) { c.Visited++ }); err == nil {
		t.Fatal("wrong Visited accepted")
	}
}

func TestValidateSSSPRejectsCorruption(t *testing.T) {
	g := graph.WithWeights(gapGraph(t, 200, 800, false, 4), 6)
	src := PickSource(g, 4)
	base := RefSSSP(g, src)

	corrupt := func(mutate func(d []int64) (visited int)) error {
		d := append([]int64(nil), base.Dist...)
		visited := mutate(d)
		if visited == 0 {
			visited = base.Visited
		}
		return ValidateSSSP(g, src, &SSSPResult{Dist: d, Visited: visited})
	}

	if err := corrupt(func(d []int64) int { return 0 }); err != nil {
		t.Fatalf("valid distances rejected: %v", err)
	}
	if err := corrupt(func(d []int64) int { d[src] = 5; return 0 }); err == nil {
		t.Fatal("bad source distance accepted")
	}
	if err := corrupt(func(d []int64) int {
		for v := range d {
			if graph.VertexID(v) != src && d[v] > 0 {
				d[v]++ // not tight any more
				return 0
			}
		}
		return 0
	}); err == nil {
		t.Fatal("slack distance accepted")
	}
	if err := corrupt(func(d []int64) int {
		for v := range d {
			if graph.VertexID(v) != src && d[v] > 0 {
				d[v] = 0 // too small: relaxation violated elsewhere or no tight in-arc
				return 0
			}
		}
		return 0
	}); err == nil {
		t.Fatal("too-small distance accepted")
	}
}

func TestWeightedVertexRecSize(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(0, 1)
	g := graph.WithWeights(b.Build(), 7)
	adj := NewAdjacency(g)
	plain := adj.Vertex(1, false).Size()
	r := adj.Vertex(1, true)
	if got, want := r.Size(), plain+2*4+12; got != want {
		t.Fatalf("weighted Size = %d, want %d", got, want)
	}
	if ws, want := adj.Weights(r), g.OutWeights(1); len(ws) != 2 || ws[0] != want[0] || ws[1] != want[1] {
		t.Fatalf("weights = %v, want %v", ws, want)
	}
}
