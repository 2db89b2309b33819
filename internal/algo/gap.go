package algo

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// GAP-style shared-memory kernels (Beamer et al., the GAP Benchmark
// Suite): direction-optimizing BFS, delta-stepping SSSP, and pull-mode
// PageRank. These are the raw reference kernels the engine hot paths
// are measured against — no simulated cluster accounting, just the
// fastest deterministic shared-memory implementation we can write.
//
// Every kernel is deterministic in its inputs: for any worker count
// the outputs are byte-identical. BFS levels and SSSP distances are
// unique fixed points, BFS parents are the minimum in-neighbour one
// level up (see BFSMultiSource), and PageRank fixes its floating-point
// accumulation order (per-vertex in-order gather plus fixed-size
// chunked dangling reduction), so parallelism never leaks into
// results.

// GapOptions tunes the kernels. The zero value is ready to use.
type GapOptions struct {
	// Workers caps kernel parallelism; 0 means par.Workers().
	// Results are identical for every value.
	Workers int

	// Delta is the SSSP bucket width; 0 selects 32 (weights are small
	// integers, see graph.MaxWeight).
	Delta int64
}

func (o GapOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return par.Workers()
}

func (o GapOptions) delta() int64 {
	if o.Delta > 0 {
		return o.Delta
	}
	return 32
}

// alignedRanges cuts [0, n) into 64-aligned near-equal ranges.
func alignedRanges(n, parts int) [][2]int {
	if n == 0 {
		return nil
	}
	words := (n + 63) / 64
	perWords := (words + parts - 1) / parts
	var out [][2]int
	for lo := 0; lo < n; lo += perWords * 64 {
		hi := min(lo+perWords*64, n)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// BFSTree is a BFS result with its parent-array certificate: Parents[v]
// is the predecessor v was reached from (the source for the source, -1
// when unreached). ValidateBFSTree checks a tree in O(V+E) without
// re-running any traversal.
type BFSTree struct {
	BFSResult
	Parents []graph.VertexID
}

// BFSDirOpt runs one direction-optimizing BFS from src as a one-lane
// BFSMultiSource sweep. It panics on a source out of range.
func BFSDirOpt(g *graph.Graph, src graph.VertexID, opt GapOptions) *BFSTree {
	trees, err := BFSMultiSource(context.Background(), g, []graph.VertexID{src}, opt)
	if err != nil {
		panic(err)
	}
	return trees[0]
}

// SSSPResult is single-source shortest paths output.
type SSSPResult struct {
	// Dist[v] is the weighted distance from the source, -1 if
	// unreached.
	Dist []int64
	// Visited counts reached vertices.
	Visited int
	// Iterations is the number of relaxation phases executed.
	Iterations int
}

const unreachedW = math.MaxInt64

// SSSPDeltaStep runs delta-stepping SSSP over a weighted graph:
// vertices are bucketed by distance/Delta, buckets are drained in
// order, and each drain relaxes the bucket's out-arcs in parallel with
// atomic distance minimisation. Each phase relaxes from the distances
// its frontier held when the phase began; a frontier vertex lowered
// mid-phase is queued again and relaxes from its new distance in a
// later phase. So Iterations, like the distances, depends on the input
// alone, never on the order the chunks of a phase run. Distances are
// exact shortest paths — integer weights make every engine's result
// byte-identical to this kernel's. Panics if g is unweighted.
func SSSPDeltaStep(g *graph.Graph, src graph.VertexID, opt GapOptions) *SSSPResult {
	if !g.Weighted() {
		panic("algo: SSSPDeltaStep on unweighted graph (use graph.WithWeights)")
	}
	n := g.NumVertices()
	r := &SSSPResult{Dist: make([]int64, n)}
	for i := range r.Dist {
		r.Dist[i] = unreachedW
	}
	if n == 0 {
		return r
	}
	workers := opt.workers()
	delta := opt.delta()
	dist := r.Dist
	dist[src] = 0

	buckets := map[int64][]graph.VertexID{0: {src}}
	maxBucket := int64(0)
	inPhase := graph.NewBitset(n)
	// frontier holds a phase's vertices with their distances at the
	// phase's start, the distances they relax from.
	type relaxFrom struct {
		v graph.VertexID
		d int64
	}
	var frontier []relaxFrom

	for b := int64(0); b <= maxBucket; b++ {
		for len(buckets[b]) > 0 {
			raw := buckets[b]
			delete(buckets, b)

			// Deduplicate and drop stale entries (vertices relaxed into
			// an earlier bucket since they were queued).
			frontier = frontier[:0]
			for _, v := range raw {
				if dist[v]/delta != b || inPhase.Get(v) {
					continue
				}
				inPhase.Set(v)
				frontier = append(frontier, relaxFrom{v, dist[v]})
			}
			for _, f := range frontier {
				inPhase.Unset(f.v)
			}
			if len(frontier) == 0 {
				continue
			}
			r.Iterations++

			chunks := partition.SplitContiguous(frontier, workers*4)
			updated := make([][]graph.VertexID, len(chunks))
			par.For(len(chunks), workers, func(_, t int) {
				var local []graph.VertexID
				for _, u := range chunks[t] {
					out, ws := g.Out(u.v), g.OutWeights(u.v)
					for i, v := range out {
						cand := u.d + int64(ws[i])
						for {
							old := atomic.LoadInt64(&dist[v])
							if old <= cand {
								break
							}
							if atomic.CompareAndSwapInt64(&dist[v], old, cand) {
								local = append(local, v)
								break
							}
						}
					}
				}
				updated[t] = local
			})
			for _, local := range updated {
				for _, v := range local {
					bk := dist[v] / delta
					if bk > maxBucket {
						maxBucket = bk
					}
					buckets[bk] = append(buckets[bk], v)
				}
			}
		}
	}

	for i, d := range dist {
		if d == unreachedW {
			dist[i] = -1
		} else {
			r.Visited++
		}
	}
	return r
}
