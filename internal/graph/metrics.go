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
// STATS algorithm in the paper (Algorithm 1). LCC is the definition,
// one sorted merge per neighbour; AvgLCC counts the same links by
// another method and is tested against it.
func (g *Graph) LCC(v VertexID) float64 {
	nbrs := g.Out(v)
	if g.directed {
		nbrs = make([]VertexID, g.Degree(v))
		nbrs = nbrs[:g.unionInto(v, nbrs, make([]uint8, len(nbrs)))]
	}
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	// Each arc among the neighbours counts once: k(k-1) ordered pairs
	// are possible, and an undirected edge is two arcs.
	links := 0
	for _, u := range nbrs {
		links += countIntersect(g.Out(u), nbrs)
	}
	return float64(links) / float64(k*(k-1))
}

// AvgLCC returns the average local clustering coefficient over all
// vertices, as computed by STATS. Each vertex's link count is the
// integer LCC's merge finds, but counted by enumerating every triangle
// of the undirected union graph once (orient, credit). The
// coefficients are summed over fixed-size chunks whose partial sums
// reduce in chunk order, so the result does not depend on the worker
// count and has the bits of LCC summed the same way.
func (g *Graph) AvgLCC() float64 {
	if g.n == 0 {
		return 0
	}
	o := g.orient()
	links := o.credit()
	n := int(g.n)
	sums := make([]float64, numChunks(n))
	par.For(len(sums), runtime.GOMAXPROCS(0), func(_, ci int) {
		s := 0.0
		lo, hi := chunk(ci, n)
		for v := lo; v < hi; v++ {
			if k := int(o.deg[v]); k >= 2 {
				s += float64(links[v]) / float64(k*(k-1))
			}
		}
		sums[ci] = s
	})
	sum := 0.0
	for _, s := range sums {
		sum += s
	}
	return sum / float64(g.n)
}

// oriented is the undirected union graph with every edge pointing from
// its lower- to its higher-ranked end, vertices ranked by (union
// degree, ID). u's forward list, its higher-ranked neighbours in ID
// order, is fwd[base[u] : base[u]+flen[u]]; mul holds beside each
// entry w the arc multiplicity [u→w] + [w→u], which is 2 on undirected
// graphs. Ranking by degree keeps every forward list within O(√E)
// entries.
type oriented struct {
	deg  []int32 // union degree
	base []int64 // slot of each vertex, len n+1
	flen []int32
	fwd  []VertexID
	mul  []uint8
}

// triangleBlock is the number of vertices per task of orient and
// credit: finer than metricChunk, because per-vertex work is uneven
// and the references often run on graphs of less than one chunk. The
// tasks only add integers, so nothing depends on how they are split.
const triangleBlock = 128

// blocks calls fn(worker, lo, hi) for every triangleBlock range of
// [0, n) on up to workers goroutines.
func blocks(n, workers int, fn func(w, lo, hi int)) {
	par.For((n+triangleBlock-1)/triangleBlock, workers, func(w, b int) {
		lo := b * triangleBlock
		fn(w, lo, min(lo+triangleBlock, n))
	})
}

// orient builds the oriented union graph. An undirected graph's union
// is its adjacency, so a vertex's slot is its CSR range. A directed
// graph's union is merged from Out and In into a slot of Degree
// entries, in a pass of its own, because ranking a neighbour needs its
// union degree. Each forward list is then written to the front of its
// slot.
func (g *Graph) orient() *oriented {
	n := int(g.n)
	o := &oriented{deg: make([]int32, n), flen: make([]int32, n)}
	if g.directed {
		o.base = make([]int64, n+1)
		for v := range o.base {
			o.base[v] = g.offsets[v] + g.inOffsets[v]
		}
		o.fwd = make([]VertexID, o.base[n])
		o.mul = make([]uint8, o.base[n])
		blocks(n, par.Workers(), func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				at := o.base[v]
				o.deg[v] = int32(g.unionInto(VertexID(v), o.fwd[at:], o.mul[at:]))
			}
		})
	} else {
		o.base = g.offsets
		o.fwd = make([]VertexID, len(g.adj))
		o.mul = make([]uint8, len(g.adj))
		for v := range o.deg {
			o.deg[v] = int32(g.offsets[v+1] - g.offsets[v])
		}
	}
	blocks(n, par.Workers(), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			at, du := o.base[u], o.deg[u]
			union, mul := o.fwd[at:at+int64(du)], o.mul[at:at+int64(du)]
			if !g.directed {
				union = g.Out(VertexID(u))
			}
			// Directed slots are filtered in place: entry k is written
			// after entry i >= k is read.
			fwd, fmul := o.fwd[at:], o.mul[at:]
			k := 0
			for i, w := range union {
				if dw := o.deg[w]; dw > du || (dw == du && int(w) > u) {
					m := uint8(2)
					if g.directed {
						m = mul[i]
					}
					fwd[k], fmul[k] = w, m
					k++
				}
			}
			o.flen[u] = int32(k)
		}
	})
	return o
}

// forward returns u's forward list and the multiplicities beside it.
func (o *oriented) forward(u VertexID) ([]VertexID, []uint8) {
	at := o.base[u]
	end := at + int64(o.flen[u])
	return o.fwd[at:end], o.mul[at:end]
}

// credit returns every vertex's links, the arcs among its union
// neighbours that LCC counts, by enumerating each triangle once: from
// its lowest-ranked corner u through its middle corner w in F(u), every
// x in F(u) ∩ F(w) closes it, and each corner is credited with the
// multiplicity of the side opposite it. A worker marks F(u), with its
// multiplicities, in a byte array and scans each F(w) against it.
// Workers count into arrays of their own, summed at the end: the
// counts are integers, so which worker ran which block moves nothing.
// The extra memory is one int64 and one byte per vertex per worker.
func (o *oriented) credit() []int64 {
	n := len(o.deg)
	counts := make([][]int64, min(par.Workers(), (n+triangleBlock-1)/triangleBlock))
	marks := make([][]uint8, len(counts))
	for w := range counts {
		counts[w], marks[w] = make([]int64, n), make([]uint8, n)
	}
	blocks(n, len(counts), func(wk, lo, hi int) {
		cnt, mark := counts[wk], marks[wk]
		for u := lo; u < hi; u++ {
			fu, mu := o.forward(VertexID(u))
			if len(fu) < 2 {
				continue
			}
			for i, x := range fu {
				mark[x] = mu[i]
			}
			var cu int64
			for i, w := range fu {
				fw, mw := o.forward(w)
				muw := int64(mu[i])
				var cw int64
				for j, x := range fw {
					if m := mark[x]; m != 0 {
						cu += int64(mw[j])
						cw += int64(m)
						cnt[x] += muw
					}
				}
				cnt[w] += cw
			}
			cnt[u] += cu
			for _, x := range fu {
				mark[x] = 0
			}
		}
	})
	links := counts[0]
	blocks(n, len(counts), func(_, lo, hi int) {
		for _, c := range counts[1:] {
			for v := lo; v < hi; v++ {
				links[v] += c[v]
			}
		}
	})
	return links
}

// unionInto writes the sorted distinct neighbours of v, the union of
// Out(v) and In(v) of a directed graph, to dst, with the multiplicity
// [v→w] + [w→v] of each w to mul at the same index, and returns how
// many it wrote. dst and mul need Degree(v) entries.
func (g *Graph) unionInto(v VertexID, dst []VertexID, mul []uint8) int {
	out, in := g.Out(v), g.In(v)
	i, j, k := 0, 0, 0
	for i < len(out) || j < len(in) {
		switch {
		case j >= len(in) || (i < len(out) && out[i] < in[j]):
			dst[k], mul[k] = out[i], 1
			i++
		case i >= len(out) || in[j] < out[i]:
			dst[k], mul[k] = in[j], 1
			j++
		default: // both arcs
			dst[k], mul[k] = out[i], 2
			i++
			j++
		}
		k++
	}
	return k
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
