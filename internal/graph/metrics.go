package graph

import (
	"runtime"
	"sync/atomic"

	"repro/internal/par"
)

// LCC returns the local clustering coefficient of v: the number of
// edges among v's neighbours divided by the number of possible such
// edges. Directed graphs use the union of in- and out-neighbours as
// the neighbourhood and count directed arcs among them, following the
// STATS algorithm in the paper (Algorithm 1).
func (g *Graph) LCC(v VertexID) float64 {
	var buf []VertexID
	return g.lccInto(v, &buf)
}

// lccInto is LCC with a caller-owned neighbourhood scratch buffer.
func (g *Graph) lccInto(v VertexID, buf *[]VertexID) float64 {
	nbrs := g.neighbourhoodInto(v, buf)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	links := 0
	for _, u := range nbrs {
		links += countIntersect(g.Out(u), nbrs)
	}
	if g.directed {
		// Directed: k(k-1) ordered pairs possible; each arc counted once.
		return float64(links) / float64(k*(k-1))
	}
	// Undirected: each edge counted twice by the loop above.
	return float64(links) / float64(k*(k-1))
}

// AvgLCC returns the average local clustering coefficient over all
// vertices, as computed by STATS. Vertices are processed in fixed-size
// chunks on up to GOMAXPROCS workers; per-chunk partial sums are
// reduced in chunk order, so the result does not depend on the worker
// count.
func (g *Graph) AvgLCC() float64 {
	if g.n == 0 {
		return 0
	}
	sums := make([]float64, numChunks(int(g.n)))
	// One reusable neighbourhood buffer per worker, copied in and out
	// so workers never write neighbouring slice headers per vertex.
	bufs := make([][]VertexID, runtime.GOMAXPROCS(0))
	par.For(len(sums), len(bufs), func(w, ci int) {
		buf := bufs[w]
		s := 0.0
		lo, hi := chunk(ci, int(g.n))
		for v := lo; v < hi; v++ {
			s += g.lccInto(VertexID(v), &buf)
		}
		sums[ci], bufs[w] = s, buf
	})
	sum := 0.0
	for _, s := range sums {
		sum += s
	}
	return sum / float64(g.n)
}

// neighbourhoodInto returns the sorted distinct neighbours of v (union
// of in and out for directed graphs). Undirected graphs return the CSR
// adjacency directly; directed graphs merge into *buf, which is grown
// and reused across calls.
func (g *Graph) neighbourhoodInto(v VertexID, buf *[]VertexID) []VertexID {
	if !g.directed {
		return g.Out(v)
	}
	out, in := g.Out(v), g.In(v)
	merged := (*buf)[:0]
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		switch {
		case j >= len(in) || (i < len(out) && out[i] < in[j]):
			merged = append(merged, out[i])
			i++
		case i >= len(out) || in[j] < out[i]:
			merged = append(merged, in[j])
			j++
		default: // equal
			merged = append(merged, out[i])
			i++
			j++
		}
	}
	*buf = merged
	return merged
}

// countIntersect returns |a ∩ b| for two sorted slices.
func countIntersect(a, b []VertexID) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// ConnectedComponents assigns each vertex a component label (the
// smallest vertex ID in its component) using a lock-free concurrent
// union-find: edges are scanned in parallel and roots merged with CAS,
// always attaching the larger root under the smaller, so every tree
// root — and therefore every final label — is the minimum vertex ID of
// its component regardless of merge interleaving. An undirected edge is
// united once, from its lower endpoint. Directed graphs use weak
// connectivity. This is the reference implementation used to
// validate the platform CONN algorithms.
func (g *Graph) ConnectedComponents() []VertexID {
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	// Single-worker fast path: the same union-find without the atomic
	// loads/CAS — on one core the LOCK prefixes are pure overhead. The
	// labels are identical either way: roots are minimal vertex IDs
	// regardless of merge order.
	if runtime.GOMAXPROCS(0) == 1 || numChunks(int(g.n)) == 1 {
		find := func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for u := VertexID(0); u < VertexID(g.n); u++ {
			for _, v := range g.Out(u) {
				if !g.directed && v < u {
					continue // the mirrored arc: v's list unions this edge
				}
				ra, rb := find(int32(u)), find(int32(v))
				if ra == rb {
					continue
				}
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
		labels := make([]VertexID, g.n)
		for i := range labels {
			labels[i] = VertexID(find(int32(i)))
		}
		return labels
	}
	find := func(x int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[x])
			if p == x {
				return x
			}
			// Path halving; parent values only ever decrease, so a
			// lost CAS just means another worker compressed first.
			gp := atomic.LoadInt32(&parent[p])
			if gp != p {
				atomic.CompareAndSwapInt32(&parent[x], p, gp)
			}
			x = p
		}
	}
	union := func(a, b int32) {
		for {
			ra, rb := find(a), find(b)
			if ra == rb {
				return
			}
			if ra > rb {
				ra, rb = rb, ra
			}
			// Attach the larger root under the smaller so roots are
			// monotonically minimal; retry if rb stopped being a root.
			if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
				return
			}
		}
	}
	chunks := numChunks(int(g.n))
	par.For(chunks, runtime.GOMAXPROCS(0), func(_, ci int) {
		lo, hi := chunk(ci, int(g.n))
		for u := VertexID(lo); u < VertexID(hi); u++ {
			for _, v := range g.Out(u) {
				if !g.directed && v < u {
					continue
				}
				union(int32(u), int32(v))
			}
		}
	})
	labels := make([]VertexID, g.n)
	par.For(chunks, runtime.GOMAXPROCS(0), func(_, ci int) {
		lo, hi := chunk(ci, int(g.n))
		for i := lo; i < hi; i++ {
			labels[i] = VertexID(find(int32(i)))
		}
	})
	return labels
}

// metricChunk is the number of vertices per parallel work unit for the
// metrics above. Chunk boundaries depend only on the vertex count —
// never on GOMAXPROCS — so chunk-ordered reductions are deterministic
// across machines.
const metricChunk = 2048

func numChunks(n int) int { return (n + metricChunk - 1) / metricChunk }

// chunk returns the vertex range [lo, hi) of chunk ci of n vertices.
func chunk(ci, n int) (lo, hi int) {
	lo = ci * metricChunk
	return lo, min(lo+metricChunk, n)
}

// LargestComponent returns the vertex IDs of the largest (weakly)
// connected component.
func (g *Graph) LargestComponent() []VertexID {
	labels := g.ConnectedComponents()
	counts := make(map[VertexID]int)
	for _, l := range labels {
		counts[l]++
	}
	best, bestN := VertexID(-1), -1
	for l, c := range counts {
		if c > bestN || (c == bestN && l < best) {
			best, bestN = l, c
		}
	}
	out := make([]VertexID, 0, bestN)
	for v, l := range labels {
		if l == best {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// BFSResult holds the outcome of a reference breadth-first search.
type BFSResult struct {
	// Level[v] is the BFS depth of v, or -1 if unreached.
	Level []int32
	// Visited is the number of vertices reached (including the source).
	Visited int
	// Iterations is the number of BFS levels expanded beyond the
	// source, i.e. the eccentricity of the source within the reached
	// set. This matches the per-dataset iteration counts of Table 5.
	Iterations int
}

// BFSFrom runs a sequential breadth-first search from src, following
// out-edges only (as the paper does for directed graphs). It is the
// reference implementation used to validate the platform BFS.
func (g *Graph) BFSFrom(src VertexID) *BFSResult {
	level := make([]int32, g.n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []VertexID{src}
	visited := 1
	depth := 0
	for len(frontier) > 0 {
		var next []VertexID
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if level[v] < 0 {
					level[v] = int32(depth + 1)
					next = append(next, v)
					visited++
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return &BFSResult{Level: level, Visited: visited, Iterations: depth}
}

// Coverage returns the fraction of vertices reached.
func (r *BFSResult) Coverage() float64 {
	if len(r.Level) == 0 {
		return 0
	}
	return float64(r.Visited) / float64(len(r.Level))
}
