package algo

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
)

// GAP-style shared-memory BFS (Beamer et al., the GAP Benchmark
// Suite): GapOptions, the one-lane entry point BFSDirOpt and the
// BFSTree it returns, and the 64-aligned work ranges (alignedRanges)
// that BFSMultiSource sweeps. The kernel itself is BFSMultiSource; no
// simulated cluster accounting runs here.
//
// The kernel is deterministic in its inputs: for any worker count the
// outputs are byte-identical. BFS levels are unique fixed points and
// BFS parents are the minimum in-neighbour one level up (see
// BFSMultiSource), so parallelism never leaks into results.

// GapOptions tunes the BFS kernel. The zero value is ready to use.
type GapOptions struct {
	// Workers caps kernel parallelism; 0 means par.Workers().
	// Results are identical for every value.
	Workers int
}

func (o GapOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return par.Workers()
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
