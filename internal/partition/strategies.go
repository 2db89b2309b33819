package partition

import (
	"repro/internal/graph"
)

// ---- hash ----------------------------------------------------------

// hashOwners assigns vertex v to shard v mod k. This is exactly the
// layout the pregel engine always used (Giraph's default
// HashPartitionerFactory), so a hash partitioning over hw.Nodes shards
// reproduces the historical byte stream bit for bit; the vertex-cut
// strategies place vertex masters by it too.
func hashOwners(n, shards int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % shards)
	}
	return owner
}

// HashPartitioning builds the hash layout from a vertex count, for
// engines that need a placement before (or without) a graph.
func HashPartitioning(n, shards int) *Partitioning {
	return newPartitioning(Hash, shards, hashOwners(n, shards), nil)
}

// ---- range ---------------------------------------------------------

// rangePartitioning assigns contiguous vertex ID ranges, with
// boundaries chosen so each shard carries a near-equal share of the
// adjacency volume (degree-weighted, each vertex weighted 1+outdeg so
// isolated vertices still spread). Generators emit IDs in community
// order, so contiguity doubles as cheap locality.
func rangePartitioning(g *graph.Graph, shards int) *Partitioning {
	n := g.NumVertices()
	owner := make([]int32, n)
	total := g.AdjSize() + int64(n)
	var cum int64
	s := int32(0)
	for v := 0; v < n; v++ {
		// Advance to the next shard once this one's weight share is
		// filled; the final shard absorbs any rounding remainder.
		for s < int32(shards-1) && cum >= total*int64(s+1)/int64(shards) {
			s++
		}
		owner[v] = s
		cum += 1 + int64(g.OutDegree(graph.VertexID(v)))
	}
	return newPartitioning(Range, shards, owner, nil)
}

// ---- edge-cut (LDG) ------------------------------------------------

// edgeCutPartitioning is a greedy streaming edge-cut in the style of
// Linear Deterministic Greedy (Stanton & Kliot): vertices arrive in ID
// order and each joins the shard holding the most already-placed
// neighbours, discounted by that shard's fullness so placement stays
// balanced. Entirely deterministic: no randomness, ties break toward
// the lowest shard ID.
func edgeCutPartitioning(g *graph.Graph, shards int) *Partitioning {
	n := g.NumVertices()
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = -1
	}
	// Hard capacity with 10% slack, in the same degree-weighted units
	// as the load; the score discount keeps shards near-even well
	// before the cap bites.
	capacity := float64(g.AdjSize()+int64(n))/float64(shards)*1.1 + 1
	load := make([]int64, shards)
	score := make([]int64, shards) // neighbour counts for the current vertex
	touched := make([]int32, 0, shards)
	for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
		for _, u := range g.Out(v) {
			if s := owner[u]; s >= 0 {
				if score[s] == 0 {
					touched = append(touched, s)
				}
				score[s]++
			}
		}
		if g.Directed() {
			for _, u := range g.In(v) {
				if s := owner[u]; s >= 0 {
					if score[s] == 0 {
						touched = append(touched, s)
					}
					score[s]++
				}
			}
		}
		best := int32(-1)
		bestScore := 0.0
		for _, s := range touched {
			w := float64(score[s]) * (1 - float64(load[s])/capacity)
			if w > bestScore || (w == bestScore && best >= 0 && s < best) {
				best, bestScore = s, w
			}
			score[s] = 0
		}
		touched = touched[:0]
		if best < 0 || float64(load[best]) >= capacity {
			// No placed neighbours (or the preferred shard is full):
			// fall back to the least-loaded shard, lowest ID first.
			best = 0
			for s := int32(1); s < int32(shards); s++ {
				if load[s] < load[best] {
					best = s
				}
			}
		}
		owner[v] = best
		load[best] += 1 + int64(g.OutDegree(v))
	}
	return newPartitioning(EdgeCut, shards, owner, nil)
}

// ---- vertex-cut ----------------------------------------------------

// VertexCutPartitioning hashes each edge to a shard and replicates its
// endpoints there — PowerGraph's random vertex-cut, and the gas
// engine's default layout over hw.Nodes machines. The edge hash is the
// exact mix the gas engine has always used for its implicit
// replication model, so a vertex-cut over hw.Nodes shards reproduces
// the historical replication factors bit for bit. Vertex masters
// follow the hash rule so every engine family can route by owner.
func VertexCutPartitioning(g *graph.Graph, shards int) *Partitioning {
	machines := min(shards, maxMachines)
	es := func(u, v graph.VertexID) int { return edgeMachine(u, v, machines) }
	return newPartitioning(VertexCut, shards, hashOwners(g.NumVertices(), shards), es)
}

// edgeMachine deterministically assigns edge (u,v) to a machine, as
// PowerGraph's random vertex-cut does (splitmix-style avalanche over
// both endpoints).
func edgeMachine(u, v graph.VertexID, machines int) int {
	h := uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return int(h % uint64(machines))
}

// ---- 2D grid -------------------------------------------------------

// gridPartitioning is a constrained vertex-cut: shards form an r×c
// grid and edge (u,v) lands in the shard at (row(u), col(v)). Any
// vertex's edges therefore touch at most one row plus one column,
// bounding its replication factor by r+c-1 (SURFER/GraphBuilder-style
// 2D placement).
func gridPartitioning(g *graph.Graph, shards int) *Partitioning {
	gs := min(shards, maxMachines)
	r := gridRows(gs)
	c := gs / r
	es := func(u, v graph.VertexID) int {
		return int(vertexMix(u)%uint64(r))*c + int(vertexMix(v)%uint64(c))
	}
	return newPartitioning(Grid, shards, hashOwners(g.NumVertices(), shards), es)
}

// gridRows returns the largest divisor of shards not exceeding its
// square root, giving the squarest possible grid (prime counts
// degenerate to a 1×k grid — hash by destination).
func gridRows(shards int) int {
	r := 1
	for d := 2; d*d <= shards; d++ {
		if shards%d == 0 {
			r = d
		}
	}
	return r
}

// vertexMix avalanches a vertex ID for grid placement (splitmix64
// finaliser).
func vertexMix(v graph.VertexID) uint64 {
	h := uint64(v) + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
