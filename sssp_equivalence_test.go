package graphbench

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dbalgo"
	"repro/internal/fault"
	"repro/internal/gasalgo"
	"repro/internal/graph"
	"repro/internal/graphdb"
	"repro/internal/mapreduce"
	"repro/internal/mralgo"
	"repro/internal/pactalgo"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/pregelalgo"
)

// TestSSSPEquivalenceMatrix extends the correctness keystone to the
// weighted axis: all five engines produce byte-identical shortest-path
// distances — equal to the sequential delta-stepping reference —
// under every shard count and partitioning strategy in the matrix, and
// again under a seeded recoverable fault plan. Integer weights make
// the distances exact, so equality is reflect.DeepEqual, not epsilon.
func TestSSSPEquivalenceMatrix(t *testing.T) {
	hw := cluster.DAS4(4, 1)
	prof, err := datagen.ByName("KGS")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.WithWeights(prof.GenerateScaled(80, 5), platform.SSSPWeightSeed)
	src := algo.PickSource(g, 42)

	// The two sequential references must agree with each other first.
	want := algo.RefSSSP(g, src)
	if ds := algo.SSSPDeltaStep(g, src, algo.GapOptions{}); !reflect.DeepEqual(ds.Dist, want.Dist) {
		t.Fatal("delta-stepping kernel disagrees with Dijkstra reference")
	}

	type run func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult
	engines := map[string]run{
		"pregel": func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult {
			profile := &cluster.ExecutionProfile{Part: pt, Fault: inj}
			r, _, err := pregelalgo.SSSP(g, hw, src, 0, profile)
			ensure(t, err)
			return r
		},
		"gas": func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult {
			profile := &cluster.ExecutionProfile{Part: pt, Fault: inj}
			r, _, err := gasalgo.SSSP(g, hw, src, 0, false, profile)
			ensure(t, err)
			return r
		},
		"mapreduce": func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult {
			e := mapreduce.New(hw)
			e.Profile.Part = pt
			e.Profile.Fault = inj
			r, err := mralgo.SSSP(e, g, src)
			ensure(t, err)
			return r
		},
		"dataflow": func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult {
			e := dataflow.New(hw)
			e.Profile.Part = pt
			e.Profile.Fault = inj
			r, err := pactalgo.SSSP(e, g, src)
			ensure(t, err)
			return r
		},
		"graphdb": func(pt *partition.Partitioning, inj *fault.Injector) algo.SSSPResult {
			// Single-machine engine: the placement rides the profile but
			// does not change the traversal; the answer must still match.
			db := graphdb.Open(g, graphdb.DefaultConfig())
			profile := &cluster.ExecutionProfile{Part: pt, Fault: inj}
			r, err := dbalgo.SSSP(db, src, profile)
			ensure(t, err)
			return r
		},
	}

	check := func(label string, got algo.SSSPResult) {
		t.Helper()
		if !reflect.DeepEqual(got.Dist, want.Dist) {
			t.Errorf("%s: distances differ from sequential reference", label)
			return
		}
		if got.Visited != want.Visited {
			t.Errorf("%s: visited = %d, want %d", label, got.Visited, want.Visited)
		}
	}

	strategies := []string{partition.Hash, partition.EdgeCut}
	shardCounts := []int{1, 4}
	for engName, r := range engines {
		check(engName+"/default", r(nil, nil))
		for _, strategy := range strategies {
			for _, shards := range shardCounts {
				pt, err := partition.Build(strategy, g, shards)
				if err != nil {
					t.Fatalf("%s/%s/p%d: %v", engName, strategy, shards, err)
				}
				check(fmt.Sprintf("%s/%s/p%d", engName, strategy, shards), r(pt, nil))
			}
		}
		// Under a seeded recoverable fault plan the answer is unchanged.
		pt, err := partition.Build(partition.Hash, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(fault.DefaultPlan(7), nil)
		check(engName+"/faults", r(pt, inj))
	}
}
