// GAP-kernel benchmark entries: the direction-optimizing BFS and the
// pull-mode PageRank of internal/algo measured as shared-memory
// kernels. The gap-bfs-dotaleague entry is the headline figure: the
// same traversal the pregel-bfs-dotaleague macro entry performs, as a
// raw kernel. Entry names are stable identifiers (BENCH_pr7.json keys).
package perf

import (
	"testing"

	"repro/internal/algo"
)

// GapSuite returns the fixed GAP benchmark set on DotaLeague.
func GapSuite() []Bench {
	dota := mustGraph("DotaLeague", BaselineScale)
	src := algo.PickSource(dota, BaselineSeed)
	opt := algo.GapOptions{}

	return []Bench{
		{
			// Headline kernel: the ≥5x claim vs BENCH_pr2's
			// pregel-bfs-dotaleague is gated on this entry.
			Name: "gap-bfs-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.BFSDirOpt(dota, src, opt)
				}
			},
		},
		{
			Name: "gap-pagerank-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.PageRankPull(dota, 10, 0.85, opt)
				}
			},
		},
	}
}
