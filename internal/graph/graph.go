// Package graph provides the core graph data structures used throughout
// graphbench: a compact CSR (compressed sparse row) representation for
// directed and undirected graphs, a mutable builder, the plain-text
// interchange format defined by the paper (Section 2.2.1), and classic
// graph metrics (degree statistics, link density, local clustering
// coefficient, connected components).
//
// Vertices are identified by dense integer IDs in [0, NumVertices).
// Undirected graphs store each edge in both adjacency lists; NumEdges
// reports the number of logical edges (each undirected edge counted
// once), matching the #E column of Table 2 in the paper.
//
// The parallel loops here (text parse, CSR build, weights, metrics)
// all run through par.For; each fixes its own ranges or chunks, so
// results never depend on the worker count.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/par"
)

// VertexID identifies a vertex. IDs are dense: every ID in
// [0, NumVertices) is a valid vertex.
type VertexID int32

// Edge is a single edge from Src to Dst. For undirected graphs the
// orientation is arbitrary.
type Edge struct {
	Src, Dst VertexID
}

// Graph is an immutable graph in CSR form. Use a Builder to construct
// one. For directed graphs both out- and in-adjacency are stored so
// that algorithms (and the paper's text format, which lists incoming
// and outgoing neighbours separately) can traverse either direction.
type Graph struct {
	directed bool
	n        int32

	// Out-adjacency (for undirected graphs, the full adjacency).
	offsets []int64 // len n+1
	adj     []VertexID

	// In-adjacency; nil for undirected graphs.
	inOffsets []int64
	inAdj     []VertexID

	// Per-arc weights aligned with adj/inAdj; nil for unweighted
	// graphs (see weights.go). weightSeed is the non-zero seed
	// WithWeights derived them from.
	weights    []uint32
	inWeights  []uint32
	weightSeed uint64
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns |E|: the number of arcs for a directed graph, or the
// number of undirected edges (each counted once) for an undirected one.
func (g *Graph) NumEdges() int64 {
	if g.directed {
		return int64(len(g.adj))
	}
	return int64(len(g.adj)) / 2
}

// AdjSize returns the total number of stored adjacency entries, i.e.
// the directed arc count after undirected edges are doubled. This is
// the quantity that determines memory footprint and message volume.
func (g *Graph) AdjSize() int64 { return int64(len(g.adj)) }

// OutDegree returns the out-degree of v (plain degree if undirected).
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// InDegree returns the in-degree of v (plain degree if undirected).
func (g *Graph) InDegree(v VertexID) int {
	if !g.directed {
		return g.OutDegree(v)
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// Degree returns the total degree of v: out+in for directed graphs,
// the plain degree for undirected graphs.
func (g *Graph) Degree(v VertexID) int {
	if !g.directed {
		return g.OutDegree(v)
	}
	return g.OutDegree(v) + g.InDegree(v)
}

// Out returns the out-neighbours of v as a shared, sorted, read-only
// slice. Callers must not modify it.
func (g *Graph) Out(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// In returns the in-neighbours of v as a shared, sorted, read-only
// slice. For undirected graphs this is the same as Out.
func (g *Graph) In(v VertexID) []VertexID {
	if !g.directed {
		return g.Out(v)
	}
	return g.inAdj[g.inOffsets[v]:g.inOffsets[v+1]]
}

// OutCSR returns the out-adjacency arrays: Out(v) is
// arcs[offsets[v]:offsets[v+1]] and OutWeights(v) the same range of
// weights (nil for unweighted graphs). All three are shared and
// read-only.
func (g *Graph) OutCSR() (offsets []int64, arcs []VertexID, weights []uint32) {
	return g.offsets, g.adj, g.weights
}

// InCSR returns the in-adjacency arrays of a directed graph, as OutCSR
// does the out-adjacency; nil for undirected graphs.
func (g *Graph) InCSR() (offsets []int64, arcs []VertexID) {
	return g.inOffsets, g.inAdj
}

// HasEdge reports whether the arc (u, v) exists (edge {u, v} for
// undirected graphs). It is O(log deg(u)).
func (g *Graph) HasEdge(u, v VertexID) bool {
	nbrs := g.Out(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Edges calls fn for every logical edge exactly once. For undirected
// graphs each edge {u, v} is reported once with u <= v.
func (g *Graph) Edges(fn func(Edge)) {
	for u := VertexID(0); u < VertexID(g.n); u++ {
		for _, v := range g.Out(u) {
			if g.directed || u <= v {
				fn(Edge{u, v})
			}
		}
	}
}

// LinkDensity returns d = #E / (#V * (#V - 1)) for directed graphs and
// 2*#E / (#V * (#V - 1)) for undirected graphs, as in Table 2.
func (g *Graph) LinkDensity() float64 {
	n := float64(g.n)
	if n < 2 {
		return 0
	}
	e := float64(g.NumEdges())
	if g.directed {
		return e / (n * (n - 1))
	}
	return 2 * e / (n * (n - 1))
}

// AvgDegree returns D from Table 2: the average degree for undirected
// graphs, the average out-degree for directed graphs.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	if g.directed {
		return float64(g.NumEdges()) / float64(g.n)
	}
	return 2 * float64(g.NumEdges()) / float64(g.n)
}

// MaxDegree returns the maximum total degree over all vertices.
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := VertexID(0); v < VertexID(g.n); v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// MemoryFootprint estimates the in-memory size of the CSR structure in
// bytes. Used by the cluster memory model.
func (g *Graph) MemoryFootprint() int64 {
	b := int64(len(g.offsets)+len(g.inOffsets)) * 8
	b += int64(len(g.adj)+len(g.inAdj)) * 4
	b += int64(len(g.weights)+len(g.inWeights)) * 4
	return b
}

func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("Graph(%s, V=%d, E=%d)", kind, g.n, g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped. The zero Builder is not usable;
// create one with NewBuilder.
type Builder struct {
	directed bool
	n        int32
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{directed: directed, n: int32(n)}
}

// AddEdge records the edge (u, v). Self-loops are ignored. Vertex IDs
// outside [0, n) panic: generator bugs should fail loudly.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= VertexID(b.n) || v >= VertexID(b.n) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build assembles the CSR graph, sorting adjacency lists and removing
// duplicates. The builder may be reused afterwards.
//
// The build is a parallel two-pass counting construction: per-worker
// degree histograms over disjoint edge ranges, a prefix sum into global
// offsets, a parallel scatter into the adjacency array, and finally a
// parallel per-vertex sort+dedup. The result is canonical (every
// adjacency list sorted and unique), so it is byte-identical regardless
// of the worker count — see buildSequential for the reference
// implementation it is tested against.
func (b *Builder) Build() *Graph {
	return b.build(buildWorkers(len(b.edges)))
}

// buildSeqThreshold is the edge count below which the parallel fan-out
// costs more than it saves.
const buildSeqThreshold = 1 << 15

// buildWorkers is the fan-out of a build over the given number of
// arcs; the cap in par.Workers also bounds the per-range histogram
// memory (workers * n * 4 bytes per direction).
func buildWorkers(edges int) int {
	if edges < buildSeqThreshold {
		return 1
	}
	return par.Workers()
}

func (b *Builder) build(workers int) *Graph {
	g := &Graph{directed: b.directed, n: b.n}
	if b.directed {
		g.offsets, g.adj = buildCSRCounting(b.n, b.edges, false, false, workers)
		g.inOffsets, g.inAdj = buildCSRCounting(b.n, b.edges, true, false, workers)
	} else {
		// One symmetric pass counts and scatters both arc directions,
		// instead of materialising a doubled edge array.
		g.offsets, g.adj = buildCSRCounting(b.n, b.edges, false, true, workers)
		if len(g.adj)%2 != 0 {
			// Symmetric dedup removes (u,v)/(v,u) pairs together, so
			// the adjacency entry count is always even.
			panic("graph: undirected adjacency asymmetry")
		}
	}
	return g
}

// ranges cuts [0, total) into at most parts contiguous, disjoint,
// near-equal ranges, always at least one. The cut depends only on
// (total, parts), so two phases that must visit identical ranges
// (histogram and scatter) agree by construction.
func ranges(total, parts int) [][2]int {
	if parts <= 1 || total == 0 {
		return [][2]int{{0, total}}
	}
	size := (total + parts - 1) / parts
	var out [][2]int
	for lo := 0; lo < total; lo += size {
		out = append(out, [2]int{lo, min(lo+size, total)})
	}
	return out
}

// buildCSRCounting builds offset + adjacency arrays from arcs with
// duplicates removed. With reverse, arcs are keyed by destination; with
// symmetric, every arc contributes both directions (undirected graphs).
func buildCSRCounting(n int32, arcs []Edge, reverse, symmetric bool, workers int) ([]int64, []VertexID) {
	P := workers
	if P < 1 {
		P = 1
	}
	// Bound per-worker histogram memory on huge vertex counts.
	// 12 bytes per vertex per worker: the int32 histogram plus the
	// int64 absolute cursor array.
	for P > 1 && int64(P)*int64(n)*12 > 256<<20 {
		P /= 2
	}

	// Pass 1: per-range degree histograms over disjoint arc ranges.
	arcRanges, vertexRanges := ranges(len(arcs), P), ranges(int(n), P)
	counts := make([][]int32, len(arcRanges))
	par.For(len(arcRanges), len(arcRanges), func(_, p int) {
		c := make([]int32, n)
		for _, e := range arcs[arcRanges[p][0]:arcRanges[p][1]] {
			s, d := e.Src, e.Dst
			if reverse {
				s, d = d, s
			}
			c[s]++
			if symmetric {
				c[d]++
			}
		}
		counts[p] = c
	})

	// Sum the histograms into bucket sizes, prefix-sum into offsets,
	// then expand each range's histogram into absolute write cursors —
	// one load+increment per scattered arc instead of an offset lookup
	// plus a relative-cursor update.
	offsets := make([]int64, int(n)+1)
	par.For(len(vertexRanges), len(vertexRanges), func(_, t int) {
		lo, hi := vertexRanges[t][0], vertexRanges[t][1]
		for v := lo; v < hi; v++ {
			total := int64(0)
			for _, c := range counts {
				total += int64(c[v])
			}
			offsets[v+1] = total
		}
	})
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	total := offsets[n]

	cursors := make([][]int64, len(counts))
	for p := range cursors {
		cursors[p] = make([]int64, n)
	}
	par.For(len(vertexRanges), len(vertexRanges), func(_, t int) {
		lo, hi := vertexRanges[t][0], vertexRanges[t][1]
		for v := lo; v < hi; v++ {
			at := offsets[v]
			for p, c := range counts {
				cursors[p][v] = at
				at += int64(c[v])
			}
		}
	})

	// Pass 2: scatter. Task p revisits exactly the arc range it
	// counted, so its cursors line up and no write races: every slot is
	// owned by one task. Arc order is preserved within each bucket,
	// but any order works — the sort below canonicalises.
	adj := make([]VertexID, total)
	par.For(len(arcRanges), len(arcRanges), func(_, p int) {
		cur := cursors[p]
		for _, e := range arcs[arcRanges[p][0]:arcRanges[p][1]] {
			s, d := e.Src, e.Dst
			if reverse {
				s, d = d, s
			}
			at := cur[s]
			adj[at] = d
			cur[s] = at + 1
			if symmetric {
				at = cur[d]
				adj[at] = s
				cur[d] = at + 1
			}
		}
	})

	// Pass 3: sort + dedup each bucket in place, in parallel over
	// vertex ranges.
	return canonicalizeCSR(n, offsets, adj, nil, P)
}

// canonicalizeCSR sorts and deduplicates every CSR bucket in place (in
// parallel over vertex ranges) and compacts the arrays if anything
// shrank. fill, when non-nil, gives the occupied prefix of each bucket
// (the direct text parse leaves slack where lines carried self-loops);
// nil means every bucket is full.
func canonicalizeCSR(n int32, offsets []int64, adj []VertexID, fill []int32, workers int) ([]int64, []VertexID) {
	newLen := make([]int32, n)
	vertexRanges := ranges(int(n), workers)
	par.For(len(vertexRanges), len(vertexRanges), func(_, t int) {
		lo, hi := vertexRanges[t][0], vertexRanges[t][1]
		for v := lo; v < hi; v++ {
			end := offsets[v+1]
			if fill != nil {
				end = offsets[v] + int64(fill[v])
			}
			list := adj[offsets[v]:end]
			// Canonical input (files written by WriteText, scatter of a
			// duplicate-free edge list in file order) arrives strictly
			// increasing; a single comparison pass then skips both the
			// sort and the dedup rewrite.
			increasing := true
			for i := 1; i < len(list); i++ {
				if list[i] <= list[i-1] {
					increasing = false
					break
				}
			}
			if increasing {
				newLen[v] = int32(len(list))
				continue
			}
			slices.Sort(list)
			w := 0
			for i, x := range list {
				if i == 0 || x != list[i-1] {
					list[w] = x
					w++
				}
			}
			newLen[v] = int32(w)
		}
	})

	var total2 int64
	for _, l := range newLen {
		total2 += int64(l)
	}
	if total2 == offsets[n] {
		// No duplicates or slack anywhere: already compact.
		return offsets, adj
	}

	// Compact into fresh arrays (in-place compaction would race across
	// worker boundaries).
	fOffsets := make([]int64, int(n)+1)
	for v := int32(0); v < n; v++ {
		fOffsets[v+1] = fOffsets[v] + int64(newLen[v])
	}
	fAdj := make([]VertexID, total2)
	par.For(len(vertexRanges), len(vertexRanges), func(_, t int) {
		lo, hi := vertexRanges[t][0], vertexRanges[t][1]
		for v := lo; v < hi; v++ {
			src := adj[offsets[v] : offsets[v]+int64(newLen[v])]
			copy(fAdj[fOffsets[v]:fOffsets[v+1]], src)
		}
	})
	return fOffsets, fAdj
}

// FromSortedAdjacency builds a graph from per-vertex adjacency lists
// that are already canonical — each strictly increasing, in [0, n) and
// free of self-loops — without sorting anything: one pass sums the list
// lengths into offsets, a second copies each list, checking it on the
// way. For undirected graphs out gives the symmetric adjacency and in
// is not called; for directed graphs in gives the in-neighbours. The
// result is byte-identical to Build over the same arcs. A list that
// breaks the contract panics, as AddEdge does on an out-of-range ID;
// arbitrary edge lists go through a Builder.
func FromSortedAdjacency(n int, directed bool, out, in func(VertexID) []VertexID) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{directed: directed, n: int32(n)}
	g.offsets, g.adj = copySortedLists(n, out)
	if directed {
		g.inOffsets, g.inAdj = copySortedLists(n, in)
		if len(g.inAdj) != len(g.adj) {
			panic("graph: in-adjacency is not the transpose of out-adjacency")
		}
	} else if len(g.adj)%2 != 0 {
		panic("graph: undirected adjacency asymmetry")
	}
	return g
}

// copySortedLists concatenates list(0), ..., list(n-1) into CSR arrays,
// panicking on a list that is not strictly increasing, leaves [0, n) or
// holds its own vertex.
func copySortedLists(n int, list func(VertexID) []VertexID) ([]int64, []VertexID) {
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(len(list(VertexID(v))))
	}
	adj := make([]VertexID, offsets[n])
	for vi := 0; vi < n; vi++ {
		v := VertexID(vi)
		l := list(v)
		if int64(len(l)) != offsets[v+1]-offsets[v] {
			panic(fmt.Sprintf("graph: adjacency of %d changed length between passes", v))
		}
		dst := adj[offsets[v]:offsets[v+1]]
		prev := VertexID(-1)
		for i, w := range l {
			switch {
			case w < 0 || w >= VertexID(n):
				panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", v, w, n))
			case w == v:
				panic(fmt.Sprintf("graph: self-loop on %d", v))
			case w <= prev:
				panic(fmt.Sprintf("graph: adjacency of %d not strictly increasing at %d", v, w))
			}
			dst[i] = w
			prev = w
		}
	}
	return offsets, adj
}

// buildSequential is the original single-goroutine, sort-based build,
// kept as the reference implementation the parallel build is tested
// against (see TestParallelBuildEquivalence).
func (b *Builder) buildSequential() *Graph {
	g := &Graph{directed: b.directed, n: b.n}

	// For undirected graphs, materialise both directions.
	arcs := b.edges
	if !b.directed {
		arcs = make([]Edge, 0, 2*len(b.edges))
		for _, e := range b.edges {
			arcs = append(arcs, e, Edge{e.Dst, e.Src})
		}
	}
	g.offsets, g.adj = buildCSRSequential(b.n, arcs, false)
	if b.directed {
		g.inOffsets, g.inAdj = buildCSRSequential(b.n, arcs, true)
	}

	if !b.directed {
		if len(g.adj)%2 != 0 {
			panic("graph: undirected adjacency asymmetry")
		}
	}
	return g
}

// buildCSRSequential sorts arcs by source (or destination when reverse
// is true) and builds offset + adjacency arrays with duplicates
// removed.
func buildCSRSequential(n int32, arcs []Edge, reverse bool) ([]int64, []VertexID) {
	key := func(e Edge) (VertexID, VertexID) {
		if reverse {
			return e.Dst, e.Src
		}
		return e.Src, e.Dst
	}

	counts := make([]int64, n+1)
	for _, e := range arcs {
		s, _ := key(e)
		counts[s+1]++
	}
	for i := int32(0); i < n; i++ {
		counts[i+1] += counts[i]
	}
	adj := make([]VertexID, len(arcs))
	next := make([]int64, n)
	copy(next, counts[:n])
	for _, e := range arcs {
		s, d := key(e)
		adj[next[s]] = d
		next[s]++
	}

	offsets := make([]int64, n+1)
	w := int64(0)
	for v := int32(0); v < n; v++ {
		offsets[v] = w
		lo, hi := counts[v], counts[v+1]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		var prev VertexID = -1
		for _, x := range list {
			if x != prev {
				adj[w] = x
				w++
				prev = x
			}
		}
	}
	offsets[n] = w
	return offsets, adj[:w]
}

// Subgraph returns the induced subgraph on keep (a set of vertex IDs),
// with vertices renumbered densely in increasing original-ID order.
// The second return value maps new IDs back to original IDs.
func (g *Graph) Subgraph(keep []VertexID) (*Graph, []VertexID) {
	sorted := append([]VertexID(nil), keep...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	remap := make(map[VertexID]VertexID, len(sorted))
	for i, v := range sorted {
		remap[v] = VertexID(i)
	}
	b := NewBuilder(len(sorted), g.directed)
	for _, u := range sorted {
		nu := remap[u]
		for _, v := range g.Out(u) {
			if nv, ok := remap[v]; ok {
				if g.directed || nu < nv {
					b.AddEdge(nu, nv)
				}
			}
		}
	}
	return b.Build(), sorted
}
