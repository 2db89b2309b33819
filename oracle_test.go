package graphbench

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/platform"
)

// oracleRow is one row of the oracle table: the cluster a graph runs
// on, its placement and its fault plan.
type oracleRow struct {
	hw          cluster.Hardware
	scaleFactor int
	partitioner string
	shards      int
	faultSeed   int64 // 0 runs fault-free
	short       bool  // kept under -short
}

func (r oracleRow) String() string {
	s := fmt.Sprintf("das4-%d/default", r.hw.Nodes)
	if r.partitioner != "" {
		s = fmt.Sprintf("das4-%d/%s-p%d", r.hw.Nodes, r.partitioner, r.shards)
	}
	if r.faultSeed != 0 {
		s += fmt.Sprintf("/faults-%d", r.faultSeed)
	}
	return s
}

// oracleGraph is one graph of the oracle table and its rows. The first
// row is every platform's default layout, fault-free; the other rows
// must reproduce its outputs.
type oracleGraph struct {
	profile    string
	scale      int
	seed       int64
	weightSeed uint64 // nonzero: pre-weighted by graph.WithWeights
	rows       []oracleRow
}

func (og oracleGraph) String() string {
	s := fmt.Sprintf("%s@%d", og.profile, og.scale)
	if og.weightSeed != 0 {
		s += fmt.Sprintf("+w%d", og.weightSeed)
	}
	return s
}

// The oracle table is split in five parts, one top-level test each, so
// that `go test -run` can pick a part; runOracle checks every part
// alike. The parts are every profile at scale 80; KGS@80 under every
// placement strategy and shard count, and under a recoverable fault
// plan; KGS@80 carrying its own weights, so SSSP runs on them rather
// than on the derived ones; Citation@50 projected to the paper's
// cluster; and the adapter-sized graphs at scale 60.
var das4, das5, das7 = cluster.DAS4(4, 1), cluster.DAS4(5, 1), cluster.DAS4(7, 1)

func TestCrossEngineEquivalenceAllDatasets(t *testing.T) {
	var table []oracleGraph
	for _, p := range datagen.Profiles() {
		table = append(table, oracleGraph{profile: p.Name, scale: 80, seed: 5,
			rows: []oracleRow{{hw: das7, short: p.Name == "Amazon"}}})
	}
	runOracle(t, table)
}

func TestCrossStrategyShardEquivalence(t *testing.T) {
	og := oracleGraph{profile: "KGS", scale: 80, seed: 5, rows: []oracleRow{{hw: das4, short: true}}}
	for _, strategy := range partition.Names() {
		for _, shards := range []int{1, 2, 4, 8} {
			og.rows = append(og.rows, oracleRow{hw: das4, partitioner: strategy, shards: shards})
		}
	}
	og.rows = append(og.rows, oracleRow{hw: das4, partitioner: partition.Hash, shards: 4, faultSeed: 7, short: true})
	runOracle(t, []oracleGraph{og})
}

func TestSSSPEquivalenceMatrix(t *testing.T) {
	runOracle(t, []oracleGraph{{profile: "KGS", scale: 80, seed: 5, weightSeed: 99, rows: []oracleRow{{hw: das4}}}})
}

func TestCrossPlatformResultEquality(t *testing.T) {
	runOracle(t, []oracleGraph{{profile: "Citation", scale: 50, seed: 42,
		rows: []oracleRow{{hw: cluster.DAS4(20, 1), scaleFactor: 50}}}})
}

func TestOracle(t *testing.T) {
	runOracle(t, []oracleGraph{
		{profile: "Amazon", scale: 60, seed: 5, rows: []oracleRow{{hw: das4}, {hw: das5}}},
		{profile: "KGS", scale: 60, seed: 5, rows: []oracleRow{{hw: das4}, {hw: das5}}},
		{profile: "Citation", scale: 60, seed: 5, rows: []oracleRow{{hw: das5}}},
	})
}

// runOracle is the correctness keystone: every platform runs every
// algorithm in every row of table, and each cell must complete, pass
// the platform oracle, report the reference's visit and iteration
// counts, and equal the same platform's default-layout output on the
// same graph. Any performance difference between platforms, placements
// or fault plans is then about how they compute, never what. Under
// -short only the rows marked short run.
func runOracle(t *testing.T, table []oracleGraph) {
	t.Parallel()
	for _, og := range table {
		rows := og.rows
		if testing.Short() {
			rows = nil
			for _, r := range og.rows {
				if r.short {
					rows = append(rows, r)
				}
			}
		}
		if len(rows) == 0 {
			continue
		}
		t.Run(og.String(), func(t *testing.T) {
			t.Parallel()
			c := newOracleCase(t, og)
			base := c.run(t, rows[0], nil)
			for _, row := range rows[1:] {
				t.Run(row.String(), func(t *testing.T) {
					t.Parallel()
					c.run(t, row, base)
				})
			}
		})
	}
}

// oracleCase is one graph under test: its oracle, and the references
// the counts are compared with, each computed once.
type oracleCase struct {
	name   string
	prof   datagen.Profile
	g      *graph.Graph
	params algo.Params
	oracle *platform.Oracle
	stats  func() algo.StatsResult
	bfs    func() algo.BFSResult
	sssp   func() algo.SSSPResult
	conn   func() algo.ConnResult
	cd     func() algo.CDResult
	evo    func() algo.EVOResult
}

func newOracleCase(t *testing.T, og oracleGraph) *oracleCase {
	prof, err := datagen.ByName(og.profile)
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(og.scale, og.seed)
	if og.weightSeed != 0 {
		g = graph.WithWeights(g, og.weightSeed)
	}
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	wg := g
	if !g.Weighted() {
		wg = graph.WithWeights(g, platform.SSSPWeightSeed)
	}
	return &oracleCase{
		name: og.String(), prof: prof, g: g, params: params,
		oracle: platform.NewOracle(g, params),
		stats:  sync.OnceValue(func() algo.StatsResult { return algo.RefStats(g) }),
		bfs:    sync.OnceValue(func() algo.BFSResult { return algo.RefBFS(g, params.BFSSource) }),
		sssp:   sync.OnceValue(func() algo.SSSPResult { return algo.RefSSSP(wg, params.BFSSource) }),
		conn:   sync.OnceValue(func() algo.ConnResult { return algo.RefConn(g) }),
		cd:     sync.OnceValue(func() algo.CDResult { return algo.RefCD(g, params) }),
		evo:    sync.OnceValue(func() algo.EVOResult { return algo.RefEVO(g, params) }),
	}
}

// run runs every platform and algorithm in row and checks each cell.
// base holds the default-layout outputs the cells must equal (nil for
// the default row itself); run returns the row's outputs.
func (c *oracleCase) run(t *testing.T, row oracleRow, base map[string]any) map[string]any {
	outs := make(map[string]any)
	for _, p := range platform.All() {
		for _, alg := range platform.Algorithms() {
			cell := fmt.Sprintf("%s %s on %s/%s", p.Name(), alg, c.name, row)
			spec := platform.Spec{
				Algorithm: alg, Dataset: c.prof, G: c.g, HW: row.hw, Params: c.params,
				ScaleFactor: row.scaleFactor, WarmCache: true,
				Partitioner: row.partitioner, Shards: row.shards,
			}
			if row.faultSeed != 0 {
				spec.Fault = fault.New(fault.DefaultPlan(row.faultSeed), nil)
			}
			r := p.Run(spec)
			if r.Status != platform.OK {
				t.Errorf("%s: status %v (%v)", cell, r.Status, r.Err)
				continue
			}
			if err := c.oracle.Check(r.Output); err != nil {
				t.Errorf("%s: fails the oracle: %v", cell, err)
			}
			if err := c.counts(p.Name(), r.Output); err != nil {
				t.Errorf("%s: %v", cell, err)
			}
			key := p.Name() + " " + alg
			if want, ok := base[key]; ok && !sameOutput(want, r.Output) {
				t.Errorf("%s: output differs from the default layout", cell)
			}
			outs[key] = r.Output
		}
	}
	return outs
}

// counts compares what the references report beside the answer:
// Visited for BFS and SSSP, Iterations for BFS, CONN and CD, and the
// edges EVO adds. Neo4j's CONN is one traversal and reports one
// iteration, not the rounds label propagation takes. STATS AvgLCC must
// also sit within 1e-9 of the reference, tighter than the oracle's
// 1e-6: every engine's fold is that close.
func (c *oracleCase) counts(platformName string, out any) error {
	switch r := out.(type) {
	case algo.StatsResult:
		if want := c.stats(); math.Abs(r.AvgLCC-want.AvgLCC) > 1e-9 {
			return fmt.Errorf("STATS AvgLCC = %v, reference %v", r.AvgLCC, want.AvgLCC)
		}
	case algo.BFSResult:
		if want := c.bfs(); r.Visited != want.Visited || r.Iterations != want.Iterations {
			return fmt.Errorf("BFS visited/iterations = %d/%d, reference %d/%d",
				r.Visited, r.Iterations, want.Visited, want.Iterations)
		}
	case algo.SSSPResult:
		if want := c.sssp(); r.Visited != want.Visited {
			return fmt.Errorf("SSSP visited = %d, reference %d", r.Visited, want.Visited)
		}
	case algo.ConnResult:
		if want := c.conn(); platformName != "Neo4j" && r.Iterations != want.Iterations {
			return fmt.Errorf("CONN iterations = %d, reference %d", r.Iterations, want.Iterations)
		}
	case algo.CDResult:
		if want := c.cd(); r.Iterations != want.Iterations {
			return fmt.Errorf("CD iterations = %d, reference %d", r.Iterations, want.Iterations)
		}
	case algo.EVOResult:
		if want := c.evo(); r.NewEdges != want.NewEdges {
			return fmt.Errorf("EVO new edges = %d, reference %d", r.NewEdges, want.NewEdges)
		}
	}
	return nil
}

// sameOutput is output equality across layouts. STATS AvgLCC may move
// in its last bits, since some engines fold the per-vertex
// coefficients in placement order.
func sameOutput(a, b any) bool {
	if sa, ok := a.(algo.StatsResult); ok {
		sb, ok := b.(algo.StatsResult)
		return ok && sa.Vertices == sb.Vertices && sa.Edges == sb.Edges &&
			math.Abs(sa.AvgLCC-sb.AvgLCC) <= 1e-12
	}
	return reflect.DeepEqual(a, b)
}
