package graph

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// TestQuickTrianglesMatchLCCLinks holds three counts of every vertex's
// links, the arcs among its union neighbours, equal: LCC's sorted
// merge, AvgLCC's oriented triangle enumeration, and a brute-force
// HasEdge count over ordered pairs. On undirected graphs their sum is
// also six times an independent triangle count.
func TestQuickTrianglesMatchLCCLinks(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%25 + 3
		e := int(rawE) % 150
		g := randomGraph(seed, n, e, directed)
		links := g.orient().credit()
		var total int64
		for v := VertexID(0); v < VertexID(n); v++ {
			nbrs := make([]VertexID, g.Degree(v))
			nbrs = nbrs[:g.unionInto(v, nbrs, make([]uint8, len(nbrs)))]
			var merge, brute int64
			for _, u := range nbrs {
				merge += int64(countIntersect(g.Out(u), nbrs))
				for _, x := range nbrs {
					if g.HasEdge(u, x) {
						brute++
					}
				}
			}
			if merge != brute || links[v] != brute {
				t.Logf("vertex %d: merge %d, enumeration %d, brute force %d", v, merge, links[v], brute)
				return false
			}
			total += brute
		}
		if directed {
			return true
		}
		// An independent count: every vertex triple u < v < w whose
		// three pairs are all edges.
		var triangles int64
		for u := VertexID(0); u < VertexID(n); u++ {
			for v := u + 1; v < VertexID(n); v++ {
				if !g.HasEdge(u, v) {
					continue
				}
				for w := v + 1; w < VertexID(n); w++ {
					if g.HasEdge(u, w) && g.HasEdge(v, w) {
						triangles++
					}
				}
			}
		}
		return total == 6*triangles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// lccSum is AvgLCC by the definition: LCC(v) summed over metricChunk
// chunks in vertex order, the partial sums added in chunk order.
func lccSum(g *Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for ci := 0; ci < numChunks(n); ci++ {
		s := 0.0
		lo, hi := chunk(ci, n)
		for v := lo; v < hi; v++ {
			s += g.LCC(VertexID(v))
		}
		sum += s
	}
	return sum / float64(n)
}

// TestQuickAvgLCCBitsMatchLCC pins AvgLCC to the definition bit for
// bit on random graphs of 1 to 24 vertices, directed and undirected,
// edgeless and disconnected ones included.
func TestQuickAvgLCCBitsMatchLCC(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint8, directed bool) bool {
		n := int(rawN)%24 + 1
		g := randomGraph(seed, n, int(rawE)%(3*n), directed)
		got, want := g.AvgLCC(), lccSum(g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("%v: AvgLCC %v, LCC summed %v", g, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAvgLCCBitsMatchLCCAcrossChunks does the same on graphs of more
// than three chunks, dense enough to close triangles, at one, two and
// four processors: the enumeration's per-worker counts must not move a
// bit.
func TestAvgLCCBitsMatchLCCAcrossChunks(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomGraph(5, 3*metricChunk+7, 40*metricChunk, directed)
		want := lccSum(g)
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := g.AvgLCC()
			runtime.GOMAXPROCS(prev)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("directed=%v GOMAXPROCS=%d: AvgLCC %v, LCC summed %v", directed, procs, got, want)
			}
		}
	}
}

func TestQuickDegreeSumIsTwiceEdges(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%40 + 2
		e := int(rawE) % 200
		g := randomGraph(seed, n, e, directed)
		var outSum, inSum int64
		for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
			outSum += int64(g.OutDegree(v))
			inSum += int64(g.InDegree(v))
		}
		if directed {
			return outSum == g.NumEdges() && inSum == g.NumEdges()
		}
		return outSum == 2*g.NumEdges() && inSum == outSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubgraphPreservesInducedEdges(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%30 + 4
		e := int(rawE) % 150
		g := randomGraph(seed, n, e, directed)
		// Keep every other vertex.
		var keep []VertexID
		for v := 0; v < n; v += 2 {
			keep = append(keep, VertexID(v))
		}
		sub, ids := g.Subgraph(keep)
		if sub.NumVertices() != len(keep) {
			return false
		}
		// Every subgraph edge exists in the original with mapped IDs,
		// and every original edge between kept vertices survives.
		var induced int64
		inKeep := map[VertexID]bool{}
		for _, v := range keep {
			inKeep[v] = true
		}
		g.Edges(func(ed Edge) {
			if inKeep[ed.Src] && inKeep[ed.Dst] {
				induced++
			}
		})
		if sub.NumEdges() != induced {
			return false
		}
		ok := true
		sub.Edges(func(ed Edge) {
			if !g.HasEdge(ids[ed.Src], ids[ed.Dst]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextSizeMatchesWrite(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16, directed bool) bool {
		n := int(rawN)%30 + 2
		e := int(rawE) % 120
		g := randomGraph(seed, n, e, directed)
		var buf countingWriter
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		return int64(buf) == TextSize(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
