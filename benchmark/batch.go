package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/platform"
)

// Batch workloads: the paper's experiment matrix, one cell per
// platform × algorithm × dataset, each cell timed on the wall clock
// from outside. A cold cell is what a user pays for one experiment
// from files: graph.ReadText from serialised bytes, partition.Build,
// Platform.Run. A warm cell runs on the resident graph. Passes over
// the matrix repeat until the run's seconds are spent; a cell's time
// is its best pass: the cells are deterministic computations, so a
// slower pass is the box's interference (see stats.go; measured
// spread of edges/s over seeds 1–8: 7.7 % with per-cell medians, 2.2 %
// with per-cell minima).

// platformLayer maps a platform to the module that does its work —
// the layer its run time is booked under.
var platformLayer = map[string]string{
	"Giraph": "pregel", "GraphLab": "gas", "Neo4j": "graphdb",
	"Hadoop": "mapreduce", "YARN": "yarn", "Stratosphere": "dataflow",
}

// obsSpanName maps the names of the program's existing engine spans to
// per-layer metric names (ms totals per pass).
var obsSpanName = map[string]string{
	"superstep":    "pregel.superstep",
	"iteration":    "gas.iteration",
	"map":          "mapreduce.phase.map",
	"sort-shuffle": "mapreduce.phase.sort-shuffle",
	"reduce":       "mapreduce.phase.reduce",
	"materialise":  "mapreduce.phase.materialise",
}

// obsCounters are the program's existing counters the traced run
// reports, summed over one pass. They repeat exactly.
var obsCounters = []string{
	"pregel.supersteps", "pregel.messages", "pregel.msg_bytes",
	"gas.iterations", "gas.gather_edges", "gas.net_bytes",
	"mapreduce.jobs", "mapreduce.shuffle_bytes", "mapreduce.map_output_records",
	"yarn.containers_requested",
	"dataflow.shuffle_bytes", "dataflow.records",
}

// batchDataset is one generated input with the sequential references
// its cells' outputs are checked against.
type batchDataset struct {
	ref     datasetRef
	profile datagen.Profile
	g       *graph.Graph
	text    []byte // graph.WriteText serialisation, the cold cells' input
	params  algo.Params

	weighted *graph.Graph
	conn     []graph.VertexID
	cd       algo.CDResult
	stats    algo.StatsResult
	evo      algo.EVOResult
}

type batchEnv struct {
	datasets []*batchDataset
	// genMs, refMs: time spent generating datasets / computing
	// references in this set-up.
	genMs, refMs float64
}

func setupBatch(def *workloadDef, seed int64, scaleMul int) (*batchEnv, error) {
	env := &batchEnv{}
	for _, ref := range def.Datasets {
		p, err := datagen.ByName(ref.Name)
		if err != nil {
			return nil, err
		}
		ref.Scale *= scaleMul
		d := &batchDataset{ref: ref, profile: p}
		t0 := time.Now()
		d.g = p.GenerateScaled(ref.Scale, datasetSeed)
		env.genMs += ms(time.Since(t0))
		var buf bytes.Buffer
		if err := graph.WriteText(&buf, d.g); err != nil {
			return nil, err
		}
		d.text = buf.Bytes()
		d.params = algo.DefaultParams(seed)
		d.params.BFSSource = algo.PickSource(d.g, seed)

		t0 = time.Now()
		for _, a := range def.Algorithms {
			switch a {
			case platform.CONN:
				d.conn = d.g.ConnectedComponents()
			case platform.CD:
				d.cd = algo.RefCD(d.g, d.params)
			case platform.STATS:
				d.stats = algo.RefStats(d.g)
			case platform.EVO:
				d.evo = algo.RefEVO(d.g, d.params)
			case platform.SSSP:
				d.weighted = graph.WithWeights(d.g, platform.SSSPWeightSeed)
			}
		}
		env.refMs += ms(time.Since(t0))
		env.datasets = append(env.datasets, d)
	}
	return env, nil
}

// check validates one OK cell's output the way internal/experiment
// does: structural certificates for BFS and SSSP, exact equality with
// the sequential reference for CONN, CD and EVO, epsilon equality for
// the one floating-point aggregate.
func (d *batchDataset) check(out any) error {
	switch r := out.(type) {
	case algo.BFSResult:
		return algo.ValidateBFS(d.g, d.params.BFSSource, &r)
	case algo.SSSPResult:
		return algo.ValidateSSSP(d.weighted, d.params.BFSSource, &r)
	case algo.ConnResult:
		if !slices.Equal(r.Labels, d.conn) {
			return fmt.Errorf("CONN labels differ from the component-minimum reference")
		}
		if n := algo.CountLabels(d.conn); r.Components != n {
			return fmt.Errorf("CONN components = %d, reference has %d", r.Components, n)
		}
		return nil
	case algo.CDResult:
		if !slices.Equal(r.Labels, d.cd.Labels) || r.Communities != d.cd.Communities {
			return fmt.Errorf("CD labels differ from the reference fixed point")
		}
		return nil
	case algo.StatsResult:
		if r.Vertices != d.stats.Vertices || r.Edges != d.stats.Edges {
			return fmt.Errorf("STATS dimensions %d/%d, reference %d/%d", r.Vertices, r.Edges, d.stats.Vertices, d.stats.Edges)
		}
		if math.Abs(r.AvgLCC-d.stats.AvgLCC) > 1e-6 {
			return fmt.Errorf("STATS AvgLCC = %v, reference %v", r.AvgLCC, d.stats.AvgLCC)
		}
		return nil
	case algo.EVOResult:
		if r.NewVertices != d.evo.NewVertices || !reflect.DeepEqual(r.Edges, d.evo.Edges) {
			return fmt.Errorf("EVO growth differs from the reference forest-fire burn")
		}
		return nil
	}
	return fmt.Errorf("no validation rule for output type %T", out)
}

// cell is one experiment of the matrix and what its passes measured.
type cell struct {
	id     int
	p      platform.Platform
	alg    string
	ds     *batchDataset
	expect string // expected status; "" accepts the first pass's

	walls  []float64 // ms, one per pass
	status string
	sim    float64 // Result.Seconds of the first pass
	out    any     // first pass's output
	bad    string  // first verification failure, "" when none
}

func (c *cell) key() string { return c.p.Name() + "/" + c.alg + "/" + c.ds.ref.Name }

func (c *cell) fail(format string, args ...any) {
	if c.bad == "" {
		c.bad = fmt.Sprintf(format, args...)
	}
}

// batchCells expands the matrix. checkExpect is false at smoke scale:
// the expected-status table describes the full-scale datasets (a
// projected timeout depends on the scale), so there a cell only has to
// repeat its first pass's status.
func batchCells(def *workloadDef, env *batchEnv, checkExpect bool) ([]*cell, error) {
	var cells []*cell
	seen := make(map[string]bool)
	for _, ds := range env.datasets {
		for _, pn := range def.Platforms {
			p, err := platform.ByName(pn)
			if err != nil {
				return nil, err
			}
			if platformLayer[pn] == "" {
				return nil, fmt.Errorf("platform %s has no layer name", pn)
			}
			for _, a := range def.Algorithms {
				c := &cell{id: len(cells), p: p, alg: a, ds: ds}
				if checkExpect {
					c.expect = platform.OK.String()
					if s, ok := def.Expect[c.key()]; ok {
						c.expect = s
					}
				}
				seen[c.key()] = true
				cells = append(cells, c)
			}
		}
	}
	for k := range def.Expect {
		if !seen[k] {
			return nil, fmt.Errorf("expect names %q, which is not a cell of the matrix", k)
		}
	}
	return cells, nil
}

// batchPass runs every cell once. rec and m are nil on an untraced
// pass; on a traced pass each layer call gets a span, each cell an
// obs.Session whose spans and counters are read back, and m
// accumulates the per-layer totals. A cell's first pass checks its
// output against the references; later passes must repeat the first.
func batchPass(def *workloadDef, cells []*cell, rec *recorder, m measured) {
	hw := cluster.DAS4(def.Nodes, 1)
	root := rec.begin("batch.pass", noSpan, 0, -1)
	for _, c := range cells {
		var (
			sess      *obs.Session
			sessEpoch time.Time
		)
		if rec != nil {
			sessEpoch = time.Now()
			sess = obs.NewSession(obs.Options{SpanCapacity: 1 << 14, NoSampler: true})
		}
		layer := platformLayer[c.p.Name()]
		id := int64(c.id)

		t0 := time.Now()
		cs := rec.begin("batch.cell", root, 0, id)
		g := c.ds.g
		if def.Cold {
			sp := rec.begin("graph.read_text", cs, 0, id)
			var err error
			g, err = graph.ReadText(bytes.NewReader(c.ds.text))
			rec.end(sp)
			if err != nil {
				c.fail("graph.ReadText: %v", err)
				rec.end(cs)
				continue
			}
			sp = rec.begin("partition.build", cs, 0, id)
			_, err = partition.Build(def.Partitioner, g, def.Shards)
			rec.end(sp)
			if err != nil {
				c.fail("partition.Build: %v", err)
				rec.end(cs)
				continue
			}
		}
		sp := rec.begin(layer+".run", cs, 0, id)
		r := c.p.Run(platform.Spec{
			Algorithm: c.alg, Dataset: c.ds.profile, G: g, HW: hw, Params: c.ds.params,
			ScaleFactor: c.ds.ref.Scale, Cold: def.Cold, WarmCache: !def.Cold,
			Partitioner: def.Partitioner, Shards: def.Shards, Obs: sess,
		})
		rec.end(sp)
		rec.end(cs)
		c.walls = append(c.walls, ms(time.Since(t0)))

		if rec != nil {
			rec.importObs(sess.Tracer, sessEpoch, sp, 0, id, sessEpoch, func(name, kind string) string {
				if mapped, ok := obsSpanName[name]; ok {
					return mapped
				}
				if kind == "operator" {
					return layer + ".op." + name
				}
				return layer + "." + kind // engine runs and jobs: one row per kind
			})
			snap := sess.Metrics.Snapshot()
			for _, name := range obsCounters {
				m.add(name, float64(snap.Counters[name]))
			}
			t1 := time.Now()
			_ = c.p.Costs().Time(r.Profile, hw)
			m.add("cluster.cost_time.us", us(time.Since(t1)))
			m.add("cluster.sim_seconds", r.Seconds)
			sess.Close()
		}

		// Verification, outside the timed cell.
		tv := time.Now()
		status := r.Status.String()
		if c.expect == "" {
			c.expect = status
		}
		if status != c.expect {
			c.fail("status %s, expected %s (%v)", status, c.expect, r.Err)
		}
		if c.status == "" {
			c.status, c.sim, c.out = status, r.Seconds, r.Output
			if r.Status == platform.OK {
				if err := c.ds.check(r.Output); err != nil {
					c.fail("output INVALID: %v", err)
				}
			}
		} else {
			if r.Seconds != c.sim {
				c.fail("sim-seconds differ between passes (%v vs %v)", r.Seconds, c.sim)
			}
			if r.Status == platform.OK && !reflect.DeepEqual(r.Output, c.out) {
				c.fail("output differs between passes")
			}
		}
		if m != nil {
			m.add("algo.ref_validate.ms", ms(time.Since(tv)))
		}
	}
	rec.end(root)
}

// layerProbes times the ingest-layer calls the cells do not isolate,
// directly and outside any pass: graph.ReadBinary of the GCSR
// serialisation, and partition quality stats.
func layerProbes(def *workloadDef, env *batchEnv, m measured) error {
	for _, d := range env.datasets {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, d.g); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := graph.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		m.add("graph.read_binary.ms", ms(time.Since(t0)))
		pt, err := partition.Build(def.Partitioner, d.g, def.Shards)
		if err != nil {
			return err
		}
		t0 = time.Now()
		st := pt.ComputeStats(d.g)
		m.add("partition.stats.ms", ms(time.Since(t0)))
		m.add("partition.cut_arcs", float64(st.CutArcs))
	}
	return nil
}

// batchSummary is what the passes so far add up to.
type batchSummary struct {
	edgesPerS float64
	typical   float64 // ms: geometric mean of the cells' best walls
	max       float64 // ms: the slowest cell's best wall
	wallMs    float64 // Σ cells' best walls
}

func summarise(cells []*cell) batchSummary {
	var s batchSummary
	var edges int64
	bests := make([]float64, 0, len(cells))
	for _, c := range cells {
		best := slices.Min(c.walls)
		bests = append(bests, best)
		s.wallMs += best
		edges += c.ds.g.NumEdges()
	}
	if s.wallMs > 0 {
		s.edgesPerS = float64(edges) / (s.wallMs / 1e3)
	}
	// The typical cell: cell times spread over two decades, where the
	// geometric mean sits at the median but, unlike it, does not jump
	// when two middle cells swap rank (measured spread 16 % vs 5 %).
	var logSum float64
	for _, b := range bests {
		logSum += math.Log(b)
	}
	s.typical = math.Exp(logSum / float64(len(bests)))
	s.max = slices.Max(bests)
	return s
}

// passTimes are the per-layer metrics that are times of the
// benchmark's own checks: averaged over the traced passes. Everything
// else a traced pass accumulates is a count that repeats exactly, so
// the first pass's value stands.
var passTimes = []string{"algo.ref_validate.ms", "cluster.cost_time.us"}

// runPasses repeats passes until another one would overrun budget, at
// least twice (the determinism check needs two), and returns how many
// it ran. The heap is collected between passes, outside every timer,
// so each pass starts from the same state.
func runPasses(def *workloadDef, cells []*cell, budget time.Duration, rec *recorder, m measured) int {
	start := time.Now()
	for passes := 1; ; passes++ {
		runtime.GC()
		t0 := time.Now()
		var pm measured
		if m != nil {
			pm = make(measured)
		}
		batchPass(def, cells, rec, pm)
		done := passes >= 2 && time.Since(start)+time.Since(t0) > budget
		if m != nil {
			if passes == 1 {
				maps.Copy(m, pm)
			} else {
				for _, k := range passTimes {
					m.add(k, pm[k])
				}
			}
			if done {
				for _, k := range passTimes {
					m[k] /= float64(passes)
				}
			}
		}
		if done {
			return passes
		}
	}
}

func runBatch(def *workloadDef, o runOpts) (measured, int, int, error) {
	runtime.GOMAXPROCS(procs())
	scaleMul := 1
	if o.smoke {
		scaleMul = 8
	}
	env, setupS, err := medianSetup(o.setupOnce(),
		func() (*batchEnv, error) { return setupBatch(def, o.seed, scaleMul) },
		func(*batchEnv) {})
	if err != nil {
		return nil, 0, 0, err
	}
	cells, err := batchCells(def, env, !o.smoke)
	if err != nil {
		return nil, 0, 0, err
	}
	m := make(measured)

	if !o.trace {
		passes := runPasses(def, cells, o.duration(), nil, nil)
		s := summarise(cells)
		fmt.Fprintf(o.log, "%s: %d cells × %d passes, Σ best wall %.1f ms\n", def.Name, len(cells), passes, s.wallMs)
		m["setup_s"] = setupS
		m["throughput"] = s.edgesPerS
		m["lat_p50_ms"] = s.typical
		return m, len(cells) * passes, reportCells(o, cells), nil
	}

	// Traced run: half the time untraced (the baseline the tracing
	// overhead is measured against), half traced.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	passes := runPasses(def, cells, o.duration()/2, nil, nil)
	untraced := summarise(cells)
	plain := make([]*cell, len(cells))
	for i, c := range cells {
		cp := *c
		cp.walls = nil
		plain[i] = &cp
	}
	rec := newRecorder()
	tm := make(measured)
	tracedPasses := runPasses(def, plain, o.duration()/2, rec, tm)
	runtime.ReadMemStats(&after)
	traced := summarise(plain)
	for i, c := range plain { // a failure on a traced pass counts too
		if cells[i].bad == "" {
			cells[i].bad = c.bad
		}
	}

	for k, v := range tm {
		m[k] = v
	}
	m["algo.ref_validate.ms"] += env.refMs
	m["datagen.generate.ms"] = env.genMs
	perPass := func(metric, spanName string) {
		d, _ := rec.total(spanName)
		m[metric] = ms(d) / float64(tracedPasses)
	}
	perPass("graph.read_text.ms", "graph.read_text")
	perPass("partition.build.ms", "partition.build")
	for _, layer := range platformLayer {
		perPass(layer+".run.ms", layer+".run")
	}
	for _, name := range obsSpanName {
		perPass(name+".ms", name)
	}
	if def.Cold && m["graph.read_text.ms"] > 0 {
		var textBytes int
		for _, c := range cells {
			textBytes += len(c.ds.text)
		}
		m["graph.read_text.mb_s"] = float64(textBytes) / (1 << 20) / (m["graph.read_text.ms"] / 1e3)
	}
	if err := layerProbes(def, env, m); err != nil {
		return nil, 0, 0, err
	}
	m["lat_p99_ms"] = traced.max
	memDelta(m, &before, &after)
	if untraced.edgesPerS > 0 {
		m["trace.overhead_share"] = (untraced.edgesPerS - traced.edgesPerS) / untraced.edgesPerS
	}
	if err := rec.report(o, m, fmt.Sprintf("%s traced: %d untraced + %d traced passes", def.Name, passes, tracedPasses)); err != nil {
		return nil, 0, 0, err
	}
	return m, len(cells) * (passes + tracedPasses), reportCells(o, cells), nil
}

// reportCells prints each failed cell and returns how many failed.
func reportCells(o runOpts, cells []*cell) int {
	failed := 0
	for _, c := range cells {
		if c.bad != "" {
			failed++
			fmt.Fprintf(o.log, "FAILED cell %s: %s\n", c.key(), c.bad)
		}
	}
	return failed
}
