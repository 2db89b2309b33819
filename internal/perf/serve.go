// Serving benchmark entries: the PR 8 batched multi-source BFS kernel
// against its solo counterpart, the batch certificate against the
// per-lane one. The speedup gate (TestBatchSpeedupGate) divides
// serve-bfs-single-dotaleague by serve-bfs-batch64-dotaleague/64 to
// check the per-query amortization claim, sweep only and with both
// sides' certificates added; entry names are stable identifiers
// (BENCH_pr8.json keys).
package perf

import (
	"context"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
)

// ServeBatchLanes is the lane count the batch entry sweeps: the full
// bitset width, the configuration the amortization gate is stated for.
const ServeBatchLanes = algo.MaxBFSLanes

// serveBatchSources spreads lanes sources across the vertex range,
// anchored at the suite's canonical source. Spread sources make the
// union frontier saturate within a couple of levels, which is the
// worst realistic case for the batch (maximum distinct work per lane).
func serveBatchSources(g *graph.Graph, lanes int) []graph.VertexID {
	n := g.NumVertices()
	base := int(algo.PickSource(g, BaselineSeed))
	srcs := make([]graph.VertexID, lanes)
	for i := range srcs {
		srcs[i] = graph.VertexID((base + i*(n/lanes+1)) % n)
	}
	return srcs
}

// ServeSuite returns the fixed serving benchmark set on DotaLeague.
func ServeSuite() []Bench {
	dota := mustGraph("DotaLeague", BaselineScale)
	src := algo.PickSource(dota, BaselineSeed)
	srcs := serveBatchSources(dota, ServeBatchLanes)
	opt := algo.GapOptions{}
	ctx := context.Background()

	// The certify entries check one finished sweep over and over:
	// what the serving dispatcher pays after every cold batch.
	trees, err := algo.BFSMultiSource(ctx, dota, srcs, opt)
	if err != nil {
		panic(err)
	}
	results := make([]*algo.BFSResult, len(trees))
	for l, t := range trees {
		results[l] = &t.BFSResult
	}
	var cert algo.BFSBatchValidator

	return []Bench{
		{
			// Solo baseline: one direction-optimizing BFS, the cost a
			// point query pays when it cannot share a sweep.
			Name: "serve-bfs-single-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.BFSDirOpt(dota, src, opt)
				}
			},
		},
		{
			// Headline batch: 64 lanes in one mask-plane sweep. The
			// gate requires single/(batch/64) >= 8x.
			Name: "serve-bfs-batch64-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algo.BFSMultiSource(ctx, dota, srcs, opt); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The certificate as PR 8 shipped it: the batch's 64 lanes
			// checked one ValidateBFS walk of the graph each.
			Name: "serve-certify-perlane64-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for l, src := range srcs {
						if err := algo.ValidateBFS(dota, src, results[l]); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
		{
			// The same 64 lanes under the word-parallel certificate, on
			// the dispatcher's reused planes. The gate requires
			// perlane64/batch64 >= 8x.
			Name: "serve-certify-batch64-dotaleague",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, err := range cert.Validate(dota, srcs, results) {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
	}
}
