package graphbench

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/dbalgo"
	"repro/internal/gasalgo"
	"repro/internal/graph"
	"repro/internal/graphdb"
	"repro/internal/mapreduce"
	"repro/internal/mralgo"
	"repro/internal/pactalgo"
	"repro/internal/platform"
	"repro/internal/pregelalgo"
)

// TestCrossEngineEquivalenceAllDatasets is the repository's
// correctness keystone: for every dataset and every algorithm, all
// five engine implementations produce results identical to the
// sequential reference — so any performance difference between
// platforms is about *how* they compute, never *what*.
func TestCrossEngineEquivalenceAllDatasets(t *testing.T) {
	hw := cluster.DAS4(7, 1)
	params := algo.DefaultParams(42)

	for _, prof := range datagen.Profiles() {
		g := prof.GenerateScaled(80, 5)
		src := algo.PickSource(g, 42)
		params.BFSSource = src

		type engines struct {
			name string
			bfs  func() (algo.BFSResult, error)
			conn func() (algo.ConnResult, error)
			cd   func() (algo.CDResult, error)
			sts  func() (algo.StatsResult, error)
			evo  func() (algo.EVOResult, error)
		}
		mk := []engines{
			{
				name: "mapreduce",
				bfs: func() (algo.BFSResult, error) {
					return mralgo.BFS(mapreduce.New(hw), g, src)
				},
				conn: func() (algo.ConnResult, error) {
					return mralgo.Conn(mapreduce.New(hw), g)
				},
				cd: func() (algo.CDResult, error) {
					return mralgo.CD(mapreduce.New(hw), g, params)
				},
				sts: func() (algo.StatsResult, error) {
					return mralgo.Stats(mapreduce.New(hw), g)
				},
				evo: func() (algo.EVOResult, error) {
					return mralgo.EVO(mapreduce.New(hw), g, params)
				},
			},
			{
				name: "pact",
				bfs: func() (algo.BFSResult, error) {
					return pactalgo.BFS(dataflow.New(hw), g, src)
				},
				conn: func() (algo.ConnResult, error) {
					return pactalgo.Conn(dataflow.New(hw), g)
				},
				cd: func() (algo.CDResult, error) {
					return pactalgo.CD(dataflow.New(hw), g, params)
				},
				sts: func() (algo.StatsResult, error) {
					return pactalgo.Stats(dataflow.New(hw), g)
				},
				evo: func() (algo.EVOResult, error) {
					return pactalgo.EVO(dataflow.New(hw), g, params)
				},
			},
			{
				name: "pregel",
				bfs: func() (algo.BFSResult, error) {
					r, _, err := pregelalgo.BFS(g, hw, src, 0, nil)
					return r, err
				},
				conn: func() (algo.ConnResult, error) {
					r, _, err := pregelalgo.Conn(g, hw, 0, nil)
					return r, err
				},
				cd: func() (algo.CDResult, error) {
					r, _, err := pregelalgo.CD(g, hw, params, 0, nil)
					return r, err
				},
				sts: func() (algo.StatsResult, error) {
					r, _, err := pregelalgo.Stats(g, hw, 0, nil)
					return r, err
				},
				evo: func() (algo.EVOResult, error) {
					r, _, err := pregelalgo.EVO(g, hw, params, 0, nil)
					return r, err
				},
			},
			{
				name: "gas",
				bfs: func() (algo.BFSResult, error) {
					r, _, err := gasalgo.BFS(g, hw, src, 0, false, nil)
					return r, err
				},
				conn: func() (algo.ConnResult, error) {
					r, _, err := gasalgo.Conn(g, hw, 0, false, nil)
					return r, err
				},
				cd: func() (algo.CDResult, error) {
					r, _, err := gasalgo.CD(g, hw, params, 0, false, nil)
					return r, err
				},
				sts: func() (algo.StatsResult, error) {
					r, _, err := gasalgo.Stats(g, hw, 0, false, nil)
					return r, err
				},
				evo: func() (algo.EVOResult, error) {
					return gasalgo.EVO(g, hw, params, 0, false, nil)
				},
			},
			{
				name: "graphdb",
				bfs: func() (algo.BFSResult, error) {
					return dbalgo.BFS(graphdb.Open(g, graphdb.DefaultConfig()), src, nil)
				},
				conn: func() (algo.ConnResult, error) {
					return dbalgo.Conn(graphdb.Open(g, graphdb.DefaultConfig()), nil)
				},
				cd: func() (algo.CDResult, error) {
					return dbalgo.CD(graphdb.Open(g, graphdb.DefaultConfig()), params, nil)
				},
				sts: func() (algo.StatsResult, error) {
					return dbalgo.Stats(graphdb.Open(g, graphdb.DefaultConfig()), nil)
				},
				evo: func() (algo.EVOResult, error) {
					return dbalgo.EVO(graphdb.Open(g, graphdb.DefaultConfig()), params, nil)
				},
			},
		}

		wantBFS := algo.RefBFS(g, src)
		wantConn := algo.RefConn(g)
		wantCD := algo.RefCD(g, params)
		wantStats := algo.RefStats(g)
		wantEVO := algo.RefEVO(g, params)

		if err := algo.ValidateBFS(g, src, &wantBFS); err != nil {
			t.Fatalf("%s: reference BFS invalid: %v", prof.Name, err)
		}

		for _, e := range mk {
			bfs, err := e.bfs()
			if err != nil {
				t.Fatalf("%s/%s BFS: %v", prof.Name, e.name, err)
			}
			if !reflect.DeepEqual(bfs.Levels, wantBFS.Levels) {
				t.Errorf("%s/%s: BFS levels differ from reference", prof.Name, e.name)
			}
			if err := algo.ValidateBFS(g, src, &bfs); err != nil {
				t.Errorf("%s/%s: BFS fails Graph500 validation: %v", prof.Name, e.name, err)
			}

			conn, err := e.conn()
			if err != nil {
				t.Fatalf("%s/%s CONN: %v", prof.Name, e.name, err)
			}
			if !reflect.DeepEqual(conn.Labels, wantConn.Labels) {
				t.Errorf("%s/%s: CONN labels differ", prof.Name, e.name)
			}

			cd, err := e.cd()
			if err != nil {
				t.Fatalf("%s/%s CD: %v", prof.Name, e.name, err)
			}
			if !reflect.DeepEqual(cd.Labels, wantCD.Labels) {
				t.Errorf("%s/%s: CD labels differ", prof.Name, e.name)
			}

			sts, err := e.sts()
			if err != nil {
				t.Fatalf("%s/%s STATS: %v", prof.Name, e.name, err)
			}
			if sts.Vertices != wantStats.Vertices || sts.Edges != wantStats.Edges ||
				math.Abs(sts.AvgLCC-wantStats.AvgLCC) > 1e-6 {
				t.Errorf("%s/%s: STATS = %+v, want %+v", prof.Name, e.name, sts, wantStats)
			}

			evo, err := e.evo()
			if err != nil {
				t.Fatalf("%s/%s EVO: %v", prof.Name, e.name, err)
			}
			if evo.NewVertices != wantEVO.NewVertices || !reflect.DeepEqual(evo.Edges, wantEVO.Edges) {
				t.Errorf("%s/%s: EVO differs from reference", prof.Name, e.name)
			}
		}
	}
}

// TestCrossPlatformResultEquality checks the layer above the engines:
// all six platforms, YARN's scheduler and Neo4j's record stores
// included, label every vertex of a graph with the reference's CONN
// components.
func TestCrossPlatformResultEquality(t *testing.T) {
	const scale = 50
	prof, err := datagen.ByName("Citation")
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(scale, 42)
	want := algo.RefConn(g)
	for _, p := range platform.All() {
		r := p.Run(platform.Spec{
			Algorithm: platform.CONN, Dataset: prof, G: g, HW: cluster.DAS4(20, 1),
			Params: algo.DefaultParams(42), WarmCache: true, ScaleFactor: scale,
		})
		if r.Status != platform.OK {
			t.Fatalf("%s: %v (%v)", p.Name(), r.Status, r.Err)
		}
		if conn := r.Output.(algo.ConnResult); !reflect.DeepEqual(conn.Labels, want.Labels) {
			t.Errorf("%s: CONN labels differ from the reference (%d components, want %d)",
				p.Name(), conn.Components, want.Components)
		}
	}
}

var _ = graph.VertexID(0)
