package graph

import "repro/internal/par"

// Edge weights.
//
// Weighted graphs carry one uint32 weight per stored arc, aligned with
// the adjacency arrays: OutWeights(v)[i] is the weight of the arc
// (v, Out(v)[i]). Weights are integer-valued (in [1, MaxWeight]) so
// that shortest-path sums are exact and every engine — whatever its
// relaxation order — produces byte-identical distances.
//
// The canonical production path derives weights from a seed with
// WithWeights: the weight of an arc is a pure function of the seed and
// its endpoints (unordered for undirected graphs, so w(u,v) == w(v,u)),
// which means engines that know only the endpoints of an edge (GAS
// gather, database traversals) can recompute the weight in O(1) with
// WeightOf instead of carrying positional weight slices around.
// Seed-derived weights are the only kind: nothing stores or parses
// weights, a weighted graph is always recomputed from its topology.

// MaxWeight is the largest weight WithWeights assigns. Distances stay
// far below 2^53, so they are exact even if converted to float64.
const MaxWeight = 255

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// OutWeights returns the weights of v's out-arcs, aligned with Out(v).
// It returns nil for unweighted graphs. Callers must not modify it.
func (g *Graph) OutWeights(v VertexID) []uint32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// InWeights returns the weights of v's in-arcs, aligned with In(v).
// For undirected graphs this is the same as OutWeights. It returns nil
// for unweighted graphs. Callers must not modify it.
func (g *Graph) InWeights(v VertexID) []uint32 {
	if g.weights == nil {
		return nil
	}
	if !g.directed {
		return g.OutWeights(v)
	}
	return g.inWeights[g.inOffsets[v]:g.inOffsets[v+1]]
}

// WeightOf returns the weight of the arc (u, v): a pure O(1) hash of
// the graph's weight seed and the endpoints, whether or not the arc is
// stored. It returns 0 if the graph is unweighted.
func (g *Graph) WeightOf(u, v VertexID) uint32 {
	if g.weights == nil {
		return 0
	}
	return WeightFor(g.weightSeed, u, v, g.directed)
}

// WeightFor returns the deterministic weight WithWeights(seed) assigns
// to the arc (u, v): an integer in [1, MaxWeight] derived from the
// seed and the endpoints. For undirected graphs the endpoints are
// hashed unordered, so WeightFor(s, u, v, false) == WeightFor(s, v, u,
// false).
func WeightFor(seed uint64, u, v VertexID, directed bool) uint32 {
	a, b := uint64(uint32(u)), uint64(uint32(v))
	if !directed && a > b {
		a, b = b, a
	}
	h := mix64(seed ^ mix64(a<<32|b))
	return uint32(h%MaxWeight) + 1
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit
// mixer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// WithWeights returns a weighted view of g: the CSR arrays are shared
// (the graph topology is immutable), and per-arc weights derived from
// seed are materialised alongside them. The seed must be non-zero.
// Deriving weights after canonicalisation keeps Build, the text
// parsers, and Subgraph weight-agnostic.
func WithWeights(g *Graph, seed uint64) *Graph {
	if seed == 0 {
		panic("graph: WithWeights seed must be non-zero")
	}
	if g.Weighted() && g.weightSeed == seed {
		return g
	}
	wg := *g
	wg.weightSeed = seed
	wg.weights = deriveWeights(g, seed, false)
	if g.directed {
		wg.inWeights = deriveWeights(g, seed, true)
	} else {
		wg.inWeights = nil
	}
	return &wg
}

// deriveWeights fills the weight array aligned with the out- (or,
// with reverse, the in-) adjacency, in parallel over vertex ranges.
func deriveWeights(g *Graph, seed uint64, reverse bool) []uint32 {
	offsets, adj := g.offsets, g.adj
	if reverse {
		offsets, adj = g.inOffsets, g.inAdj
	}
	w := make([]uint32, len(adj))
	vertexRanges := ranges(int(g.n), buildWorkers(len(adj)))
	par.For(len(vertexRanges), len(vertexRanges), func(_, t int) {
		lo, hi := vertexRanges[t][0], vertexRanges[t][1]
		for vi := lo; vi < hi; vi++ {
			v := VertexID(vi)
			for i := offsets[v]; i < offsets[v+1]; i++ {
				u := adj[i]
				if reverse {
					// In-arc (u -> v): hash in arc orientation.
					w[i] = WeightFor(seed, u, v, g.directed)
				} else {
					w[i] = WeightFor(seed, v, u, g.directed)
				}
			}
		}
	})
	return w
}
