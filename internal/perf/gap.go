// GAP-kernel benchmark entries: the direction-optimizing BFS, the
// delta-stepping SSSP, and the pull-mode PageRank of internal/algo
// measured as shared-memory kernels, plus the engine-level
// counterparts (pregel direction-optimizing BFS, pregel/gas SSSP).
// The gap-bfs-dotaleague entry is the PR's headline figure: the same
// traversal the pregel-bfs-dotaleague macro entry performs, as a raw
// kernel. Entry names are stable identifiers (BENCH_pr7.json keys).
package perf

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/gasalgo"
	"repro/internal/graph"
	"repro/internal/pregelalgo"
)

// GapWeightSeed pins the weight derivation for the weighted entries
// (the platform layer's SSSP seed, so the benchmarks measure exactly
// the graphs the suite runs on).
const GapWeightSeed uint64 = 0x5353_5350

// GapSuite returns the fixed GAP benchmark set on DotaLeague: kernel
// entries first, then the engine-level counterparts.
func GapSuite() []Bench {
	hw := cluster.DAS4(20, 1)
	dota := mustGraph("DotaLeague", BaselineScale)
	wdota := graph.WithWeights(dota, GapWeightSeed)
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
			Name: "gap-sssp-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.SSSPDeltaStep(wdota, src, opt)
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
		{
			Name: "pregel-bfs-dotaleague-diropt",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := pregelalgo.BFSDirOpt(dota, hw, src, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				profile := &cluster.ExecutionProfile{}
				if _, _, err := pregelalgo.BFSDirOpt(dota, hw, src, 0, profile); err != nil {
					panic(err)
				}
				return cluster.GiraphCosts().Time(profile, hw).Total
			},
		},
		{
			Name: "pregel-sssp-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := pregelalgo.SSSP(wdota, hw, src, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				profile := &cluster.ExecutionProfile{}
				if _, _, err := pregelalgo.SSSP(wdota, hw, src, 0, profile); err != nil {
					panic(err)
				}
				return cluster.GiraphCosts().Time(profile, hw).Total
			},
		},
		{
			Name: "gas-sssp-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := gasalgo.SSSP(wdota, hw, src, 0, false, nil); err != nil {
						b.Fatal(err)
					}
				}
			},
			Sim: func() float64 {
				profile := &cluster.ExecutionProfile{}
				if _, _, err := gasalgo.SSSP(wdota, hw, src, 0, false, profile); err != nil {
					panic(err)
				}
				return cluster.GraphLabCosts().Time(profile, hw).Total
			},
		},
	}
}
