package graph

import (
	"testing"
	"testing/quick"
)

func TestQuickTrianglesMatchLCCLinks(t *testing.T) {
	// For an undirected graph, summing each vertex's closed-wedge
	// count (LCC numerator) counts every triangle six times.
	f := func(seed int64, rawN uint8, rawE uint16) bool {
		n := int(rawN)%25 + 3
		e := int(rawE) % 150
		g := randomGraph(seed, n, e, false)
		var links int64
		for v := VertexID(0); v < VertexID(g.NumVertices()); v++ {
			nbrs := g.Out(v)
			for _, u := range nbrs {
				links += int64(countIntersect(g.Out(u), nbrs))
			}
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
		return links == 6*triangles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
