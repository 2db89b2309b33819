package graphbench

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/gasalgo"
	"repro/internal/mapreduce"
	"repro/internal/mralgo"
	"repro/internal/pactalgo"
	"repro/internal/partition"
	"repro/internal/pregelalgo"
)

// TestCrossStrategyShardEquivalence is the partition layer's
// determinism keystone: every algorithm on every distributed engine
// produces byte-identical results under every partitioning strategy
// and every shard count — placement moves cost, never answers.
func TestCrossStrategyShardEquivalence(t *testing.T) {
	hw := cluster.DAS4(4, 1)
	prof, err := datagen.ByName("KGS")
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(80, 5)
	params := algo.DefaultParams(42)
	src := algo.PickSource(g, 42)
	params.BFSSource = src

	algorithms := []string{"BFS", "CONN", "CD", "STATS", "EVO"}
	shardCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		algorithms = []string{"BFS", "CONN"}
		shardCounts = []int{1, 4}
	}

	// runAll executes one engine's five algorithms under the given
	// placement (nil = the engine's historical default) and returns the
	// outputs keyed by algorithm.
	type runner func(pt *partition.Partitioning) map[string]any
	engines := map[string]runner{
		"pregel": func(pt *partition.Partitioning) map[string]any {
			profile := func() *cluster.ExecutionProfile { return &cluster.ExecutionProfile{Part: pt} }
			out := map[string]any{}
			for _, alg := range algorithms {
				switch alg {
				case "BFS":
					r, _, err := pregelalgo.BFS(g, hw, src, 0, profile())
					ensure(t, err)
					out[alg] = r
				case "CONN":
					r, _, err := pregelalgo.Conn(g, hw, 0, profile())
					ensure(t, err)
					out[alg] = r
				case "CD":
					r, _, err := pregelalgo.CD(g, hw, params, 0, profile())
					ensure(t, err)
					out[alg] = r
				case "STATS":
					r, _, err := pregelalgo.Stats(g, hw, 0, profile())
					ensure(t, err)
					out[alg] = r
				case "EVO":
					r, _, err := pregelalgo.EVO(g, hw, params, 0, profile())
					ensure(t, err)
					out[alg] = r
				}
			}
			return out
		},
		"gas": func(pt *partition.Partitioning) map[string]any {
			profile := func() *cluster.ExecutionProfile { return &cluster.ExecutionProfile{Part: pt} }
			out := map[string]any{}
			for _, alg := range algorithms {
				switch alg {
				case "BFS":
					r, _, err := gasalgo.BFS(g, hw, src, 0, false, profile())
					ensure(t, err)
					out[alg] = r
				case "CONN":
					r, _, err := gasalgo.Conn(g, hw, 0, false, profile())
					ensure(t, err)
					out[alg] = r
				case "CD":
					r, _, err := gasalgo.CD(g, hw, params, 0, false, profile())
					ensure(t, err)
					out[alg] = r
				case "STATS":
					r, _, err := gasalgo.Stats(g, hw, 0, false, profile())
					ensure(t, err)
					out[alg] = r
				case "EVO":
					r, err := gasalgo.EVO(g, hw, params, 0, false, profile())
					ensure(t, err)
					out[alg] = r
				}
			}
			return out
		},
		"mapreduce": func(pt *partition.Partitioning) map[string]any {
			eng := func() *mapreduce.Engine {
				e := mapreduce.New(hw)
				e.Profile.Part = pt
				return e
			}
			out := map[string]any{}
			for _, alg := range algorithms {
				switch alg {
				case "BFS":
					r, err := mralgo.BFS(eng(), g, src)
					ensure(t, err)
					out[alg] = r
				case "CONN":
					r, err := mralgo.Conn(eng(), g)
					ensure(t, err)
					out[alg] = r
				case "CD":
					r, err := mralgo.CD(eng(), g, params)
					ensure(t, err)
					out[alg] = r
				case "STATS":
					r, err := mralgo.Stats(eng(), g)
					ensure(t, err)
					out[alg] = r
				case "EVO":
					r, err := mralgo.EVO(eng(), g, params)
					ensure(t, err)
					out[alg] = r
				}
			}
			return out
		},
		"dataflow": func(pt *partition.Partitioning) map[string]any {
			eng := func() *dataflow.Engine {
				e := dataflow.New(hw)
				e.Profile.Part = pt
				return e
			}
			out := map[string]any{}
			for _, alg := range algorithms {
				switch alg {
				case "BFS":
					r, err := pactalgo.BFS(eng(), g, src)
					ensure(t, err)
					out[alg] = r
				case "CONN":
					r, err := pactalgo.Conn(eng(), g)
					ensure(t, err)
					out[alg] = r
				case "CD":
					r, err := pactalgo.CD(eng(), g, params)
					ensure(t, err)
					out[alg] = r
				case "STATS":
					r, err := pactalgo.Stats(eng(), g)
					ensure(t, err)
					out[alg] = r
				case "EVO":
					r, err := pactalgo.EVO(eng(), g, params)
					ensure(t, err)
					out[alg] = r
				}
			}
			return out
		},
	}

	wantBFS := algo.RefBFS(g, src)
	for engName, run := range engines {
		// Reference: the engine's historical default layout.
		base := run(nil)
		if r, ok := base["BFS"].(algo.BFSResult); ok {
			if !reflect.DeepEqual(r.Levels, wantBFS.Levels) {
				t.Fatalf("%s: default-layout BFS differs from sequential reference", engName)
			}
		}
		for _, strategy := range partition.Names() {
			for _, shards := range shardCounts {
				pt, err := partition.Build(strategy, g, shards)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", engName, strategy, shards, err)
				}
				got := run(pt)
				for _, alg := range algorithms {
					label := fmt.Sprintf("%s/%s/%s/p%d", engName, alg, strategy, shards)
					if !outputsEqual(base[alg], got[alg]) {
						t.Errorf("%s: output differs from default layout", label)
					}
				}
			}
		}
	}
}

func ensure(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// outputsEqual compares two algorithm outputs, tolerating float
// rounding only in the STATS scalar aggregates (which are still
// expected to be bit-identical given identical fold order — the
// epsilon is defensive).
func outputsEqual(a, b any) bool {
	if sa, ok := a.(algo.StatsResult); ok {
		sb, ok := b.(algo.StatsResult)
		if !ok {
			return false
		}
		return sa.Vertices == sb.Vertices && sa.Edges == sb.Edges &&
			math.Abs(sa.AvgLCC-sb.AvgLCC) <= 1e-12
	}
	return reflect.DeepEqual(a, b)
}
