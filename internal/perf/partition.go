// Partition-aware benchmark entries: the same fixed macro workload
// (Pregel-model BFS) measured under explicit placements, so the cost
// of sharding and the benefit of a better strategy are tracked figures
// rather than anecdotes. Entry names follow {bench}-p{shards}-{strategy};
// p1-hash is the degenerate single-shard reference.
package perf

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pregelalgo"
	"testing"
)

// partitionCases are the shard-count x strategy points the suite pins:
// the single-shard reference, then hash vs edge cut at 4 and 8 shards.
var partitionCases = []struct {
	shards   int
	strategy string
}{
	{1, partition.Hash},
	{4, partition.Hash},
	{4, partition.EdgeCut},
	{8, partition.Hash},
	{8, partition.EdgeCut},
}

// PartitionSuite returns the fixed partition-aware benchmark set:
// Pregel BFS on DotaLeague and KGS under each pinned placement. Names
// are stable identifiers (BENCH_pr6.json keys).
func PartitionSuite() []Bench {
	hw := cluster.DAS4(8, 1)
	datasets := []struct {
		key string
		g   *graph.Graph
	}{
		{"dotaleague", mustGraph("DotaLeague", BaselineScale)},
		{"kgs", mustGraph("KGS", BaselineScale)},
	}

	var out []Bench
	for _, ds := range datasets {
		ds := ds
		src := algo.PickSource(ds.g, BaselineSeed)
		for _, pc := range partitionCases {
			pc := pc
			part, err := partition.Build(pc.strategy, ds.g, pc.shards)
			if err != nil {
				panic(err)
			}
			run := func() *cluster.ExecutionProfile {
				profile := &cluster.ExecutionProfile{Part: part}
				if _, _, err := pregelalgo.BFS(ds.g, hw, src, 0, profile); err != nil {
					panic(err)
				}
				return profile
			}
			out = append(out, Bench{
				Name: fmt.Sprintf("pregel-bfs-%s-p%d-%s", ds.key, pc.shards, pc.strategy),
				Run: func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						run()
					}
				},
				Sim: func() float64 {
					return cluster.GiraphCosts().Time(run(), hw).Total
				},
			})
		}
	}
	return out
}
