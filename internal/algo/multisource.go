package algo

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
)

// Batched multi-source BFS: the serving daemon's perf core. A 64-bit
// word per vertex carries up to MaxBFSLanes concurrent BFS queries as
// independent bit lanes, so one memory sweep over the CSR amortises
// across a whole batch of point queries and the per-query cost
// collapses (the GAP suite's bitset-frontier insight applied across
// queries instead of across one frontier).
//
// The per-lane contract is byte-identical output, not a byte-identical
// schedule: each lane's parent is the minimum in-neighbour one level up
// in either direction (top-down sweeps frontier vertices in ascending
// order, and bottom-up scans the ascending In(v) list so its first
// frontier hit is that same minimum), and levels plus the
// Visited/Iterations counters are direction-independent. That frees
// the batch to traverse however the sweeps amortise best while
// TestBFSMultiSourceEquivalence pins every lane byte-identical to the
// sequential RefBFSTree from the same source, for every worker count.
//
// Both directions are word-parallel across lanes:
//
//	top-down    sweeps the ascending *union* frontier once; each
//	            out-edge (u,v) claims all lanes in
//	            curFront[u] &^ visitedMask[v] with one mask op, so an
//	            edge on 40 lanes' frontiers is scanned once, not 40
//	            times. Ascending u makes the first claimer of each
//	            (vertex, lane) the minimum frontier in-neighbour.
//	bottom-up   probes every vertex with lanes still pending
//	            (activeMask &^ visitedMask[v]); one scan of the
//	            ascending In(v) list claims each pending lane at its
//	            first frontier in-neighbour — again the minimum — and
//	            stops early once no lane is pending.
//
// The per-level direction choice replaces Beamer's alpha/beta test.
// One O(n) word scan computes the exact bounds — sum of out-degrees
// over the union frontier (top-down) versus sum of in-degrees over
// still-pending vertices (bottom-up) — and when the bottom-up bound
// loses, a stride sample of pending vertices (bfsMultiEstimateBU)
// prices bottom-up's early exit, which the bound cannot see. On
// saturated mid-levels the sample tracks the bound (64 pending lanes
// rarely all clear early) and the batch stays top-down; on late
// levels, where most lanes already hold most vertices, probes clear
// whole pending words in a few steps and the sampled cost collapses to
// a fraction of the union sweep — the asymmetry that makes GAP's
// bottom-up levels nearly free.

// MaxBFSLanes is the lane capacity of one batched sweep: one bit per
// query in the per-vertex frontier/visited words.
const MaxBFSLanes = 64

// ErrDeadlineExceeded is returned (wrapped) by kernels whose context
// expires mid-sweep, so server deadlines cancel in-flight work instead
// of only gating at admission. Test with errors.Is.
var ErrDeadlineExceeded = errors.New("algo: deadline exceeded")

// BFSMultiSource runs one direction-optimizing BFS per source, batched
// into a single lane-parallel traversal. Duplicate sources are legal
// (independent lanes). The context is checked once per level — the
// sweep's loop header — and expiry returns a wrapped
// ErrDeadlineExceeded with no partial results.
func BFSMultiSource(ctx context.Context, g *graph.Graph, srcs []graph.VertexID, opt GapOptions) ([]*BFSTree, error) {
	L := len(srcs)
	if L == 0 {
		return nil, nil
	}
	if L > MaxBFSLanes {
		return nil, fmt.Errorf("algo: %d sources exceed the %d-lane batch capacity", L, MaxBFSLanes)
	}
	n := g.NumVertices()
	trees := make([]*BFSTree, L)
	for l := range trees {
		t := &BFSTree{
			BFSResult: BFSResult{Levels: make([]int32, n)},
			Parents:   make([]graph.VertexID, n),
		}
		for i := range t.Levels {
			t.Levels[i] = -1
			t.Parents[i] = -1
		}
		trees[l] = t
	}
	if n == 0 {
		return trees, nil
	}
	for _, src := range srcs {
		if int(src) < 0 || int(src) >= n {
			return nil, fmt.Errorf("algo: source %d out of range [0,%d)", src, n)
		}
	}

	workers := opt.workers()

	// Lane-bitmask planes: bit l of visitedMask[v] means lane l reached
	// v; curFront/nextFront hold the current and next frontier
	// memberships. activeMask tracks lanes whose frontier is non-empty.
	visitedMask := make([]uint64, n)
	curFront := make([]uint64, n)
	nextFront := make([]uint64, n)
	var activeMask uint64
	for l, src := range srcs {
		t := trees[l]
		t.Levels[src] = 0
		t.Parents[src] = src
		t.Visited = 1
		bit := uint64(1) << uint(l)
		visitedMask[src] |= bit
		curFront[src] |= bit
		activeMask |= bit
	}

	// Hoisted per-lane level/parent planes: the claim loops run once
	// per (vertex, lane) claim, and indexing through trees[l] would pay
	// a pointer chase plus field offsets on each.
	lvs := make([][]int32, L)
	pars := make([][]graph.VertexID, L)
	for l, t := range trees {
		lvs[l] = t.Levels
		pars[l] = t.Parents
	}

	var counts [MaxBFSLanes]int64 // per-lane claims this level

	// Bottom-up scratch, hoisted: the range split depends only on n
	// and the worker count, so levels reuse it instead of allocating.
	ranges := alignedRanges(n, workers*4)
	taskCounts := make([][MaxBFSLanes]int64, len(ranges))
	taskClaimed := make([]uint64, len(ranges))

	level := int32(0)
	for activeMask != 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w at level %d: %v", ErrDeadlineExceeded, level, err)
		}
		level++

		// Direction choice, one word scan for the exact bounds:
		// top-down pays the out-degrees of the union frontier (each
		// edge once for all lanes), bottom-up pays at most the
		// in-degrees of vertices with any lane pending. The bottom-up
		// bound ignores its early exit — each probe clears every lane
		// whose frontier holds the in-neighbour, and dense union
		// frontiers clear whole pending words in a handful of probes —
		// so on saturated mid-levels the bound overstates the real
		// cost by an order of magnitude and would pin the batch
		// top-down. A stride sample of pending vertices prices the
		// early exit before the full sweep is paid.
		var tdCost, buBound int64
		var pendingCount int
		for vi := 0; vi < n; vi++ {
			if curFront[vi] != 0 {
				tdCost += int64(len(g.Out(graph.VertexID(vi))))
			}
			if activeMask&^visitedMask[vi] != 0 {
				buBound += int64(len(g.In(graph.VertexID(vi))))
				pendingCount++
			}
		}
		// The 2× margin keeps saturated mid-levels top-down: there the
		// sampled estimate lands within a few percent of tdCost (64
		// pending lanes rarely all clear early), and bottom-up's
		// per-probe cost is higher than the union sweep's, so a bare
		// est < tdCost test would flip direction for a loss. Late
		// levels, where most lanes already hold most vertices and
		// probes clear whole pending words, sample an order of
		// magnitude under tdCost and clear the margin easily.
		useBU := buBound < tdCost
		if !useBU && pendingCount > 0 {
			est := bfsMultiEstimateBU(g, visitedMask, curFront, activeMask, pendingCount)
			useBU = est*2 < tdCost
		}

		clear(counts[:])
		var claimedAny uint64
		if useBU {
			// Bottom-up: tasks own disjoint aligned vertex ranges, so
			// every visitedMask/nextFront/levels/parents write is
			// race-free; per-task counters merge after the barrier.
			par.For(len(ranges), workers, func(_, t int) {
				cnt := &taskCounts[t]
				clear(cnt[:])
				var anyClaim uint64
				for vi := ranges[t][0]; vi < ranges[t][1]; vi++ {
					pending := activeMask &^ visitedMask[vi]
					if pending == 0 {
						continue
					}
					var claimed uint64
					for _, u := range g.In(graph.VertexID(vi)) {
						hit := curFront[u] & pending
						if hit == 0 {
							continue
						}
						pending &^= hit
						claimed |= hit
						for ; hit != 0; hit &= hit - 1 {
							l := bits.TrailingZeros64(hit)
							lvs[l][vi] = level
							pars[l][vi] = u
							cnt[l]++
						}
						if pending == 0 {
							break
						}
					}
					if claimed != 0 {
						visitedMask[vi] |= claimed
						nextFront[vi] = claimed
						anyClaim |= claimed
					}
				}
				taskClaimed[t] = anyClaim
			})
			for t := range taskCounts {
				claimedAny |= taskClaimed[t]
				for l := 0; l < L; l++ {
					counts[l] += taskCounts[t][l]
				}
			}
		} else {
			// Top-down union sweep, sequential in ascending u so the
			// first claimer of each (vertex, lane) is the minimum
			// frontier in-neighbour — the canonical parent.
			for ui := 0; ui < n; ui++ {
				fu := curFront[ui]
				if fu == 0 {
					continue
				}
				u := graph.VertexID(ui)
				for _, v := range g.Out(u) {
					claim := fu &^ visitedMask[v]
					if claim == 0 {
						continue
					}
					visitedMask[v] |= claim
					nextFront[v] |= claim
					claimedAny |= claim
					for ; claim != 0; claim &= claim - 1 {
						l := bits.TrailingZeros64(claim)
						lvs[l][v] = level
						pars[l][v] = u
						counts[l]++
					}
				}
			}
		}

		for l := 0; l < L; l++ {
			if counts[l] > 0 {
				trees[l].Visited += int(counts[l])
				trees[l].Iterations = int(level)
			}
		}
		activeMask = claimedAny
		curFront, nextFront = nextFront, curFront
		clear(nextFront)
	}
	return trees, nil
}

// bfsMultiEstimateBU extrapolates the probe cost of one bottom-up
// batch level from a stride sample of pending vertices scanned against
// the union frontier — exactly the work the real scan would do, on ~16
// vertices. Each probe clears every pending lane whose frontier holds
// the in-neighbour, so where lane frontiers overlap the scan stops far
// short of the full in-list and the exact bound is badly pessimistic.
// Deterministic (pure function of the mask planes), so the direction
// schedule is identical for every worker count.
func bfsMultiEstimateBU(g *graph.Graph, visitedMask, curFront []uint64, activeMask uint64, pendingCount int) int64 {
	const samples = 16
	n := g.NumVertices()
	stride := pendingCount/samples + 1
	var probes int64
	seen, taken := 0, 0
	for vi := 0; vi < n && taken < samples; vi++ {
		pending := activeMask &^ visitedMask[vi]
		if pending == 0 {
			continue
		}
		if seen%stride == 0 {
			taken++
			for _, u := range g.In(graph.VertexID(vi)) {
				probes++
				pending &^= curFront[u]
				if pending == 0 {
					break
				}
			}
		}
		seen++
	}
	if taken == 0 {
		return 0
	}
	return probes * int64(pendingCount) / int64(taken)
}
