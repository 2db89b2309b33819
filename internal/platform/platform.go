// Package platform presents the six systems of the paper's Table 4 —
// Hadoop, YARN, Stratosphere, Giraph, GraphLab (plus the GraphLab(mp)
// tuning variant), and Neo4j — behind one interface. Each platform
// wires its engine, its algorithm implementations, its cost model, and
// its failure semantics (out-of-memory crashes, the paper's run
// terminations) into a single Run call, which is what the benchmark
// harness drives for every experiment.
package platform

import (
	"errors"
	"fmt"

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
	"repro/internal/obs"
	"repro/internal/pactalgo"
	"repro/internal/partition"
	"repro/internal/pregelalgo"
	"repro/internal/yarn"
)

// Algorithm names, as used throughout the paper, plus the weighted
// shortest-path extension (SSSP) every platform implements over the
// weighted CSR.
const (
	STATS = "STATS"
	BFS   = "BFS"
	CONN  = "CONN"
	CD    = "CD"
	EVO   = "EVO"
	SSSP  = "SSSP"
)

// Algorithms lists the algorithm classes: the paper's five in paper
// order, then SSSP.
func Algorithms() []string { return []string{STATS, BFS, CONN, CD, EVO, SSSP} }

// SSSPWeightSeed derives the synthetic edge weights every platform
// shares when an SSSP spec's graph carries none: the weight of an arc
// is a pure function of this seed and its endpoints, so all engines —
// and the sequential reference — see identical weights.
const SSSPWeightSeed uint64 = 0x5353_5350 // "SSSP"

// weightedFor returns the weighted view SSSP runs on: the graph
// itself when already weighted, otherwise the shared derived
// weighting.
func weightedFor(g *graph.Graph) *graph.Graph {
	if g.Weighted() {
		return g
	}
	return graph.WithWeights(g, SSSPWeightSeed)
}

// Timeout thresholds, in projected (paper-scale) seconds. The paper
// terminated Stratosphere's STATS on DotaLeague after ~4 hours, and
// reports Neo4j runs exceeding 20 hours without completing.
const (
	DistributedTimeout = 4 * 3600
	SingleNodeTimeout  = 20 * 3600
	// IngestionLimit marks datasets whose single-node ingestion is
	// infeasible (Neo4j's Friendster entry is "N/A" in Table 6).
	IngestionLimit = 100 * 3600
)

// Spec describes one experiment run.
type Spec struct {
	// Algorithm is one of STATS, BFS, CONN, CD, EVO.
	Algorithm string
	// Dataset supplies the name and the scale projection divisors.
	Dataset datagen.Profile
	// G is the generated graph.
	G *graph.Graph
	// HW is the simulated cluster.
	HW cluster.Hardware
	// Params are the algorithm parameters (Section 3.2 defaults).
	Params algo.Params
	// ScaleFactor is any extra down-scaling applied on top of the
	// dataset's default divisors (1 = none); it participates in the
	// paper-scale projection.
	ScaleFactor int
	// WarmCache requests a hot-cache run (Neo4j only): the cold pass
	// is executed first and discarded, as the paper does.
	WarmCache bool
	// Cold forces a cold-cache run even when WarmCache is set: no
	// engine may execute a discarded warm-up pass first. The
	// experiment driver (internal/experiment) sets it on the cold leg
	// of every cell, generalising the graphdb cold/hot-cache split to
	// all engines.
	Cold bool
	// Obs, when non-nil, is the observability session the run's engine
	// reports real spans and counters into (see internal/obs).
	Obs *obs.Session
	// Fault, when non-nil, is the fault injector driving a chaos run
	// (see internal/fault); it rides the execution profile into the
	// platform's engine the same way Obs does. The distributed engines
	// recover injected faults; Neo4j is single-machine and out of the
	// chaos model's scope.
	Fault *fault.Injector
	// Partitioner selects an explicit placement strategy (see
	// internal/partition: "hash", "range", "edgecut", "vertexcut",
	// "grid"). Empty with Shards == 0 keeps each engine's default
	// layout; empty with Shards set defaults to "hash". Neo4j is
	// single-machine and ignores placement.
	Partitioner string
	// Shards is the shard (worker) count for the explicit placement; 0
	// defaults to HW.Nodes when Partitioner is set.
	Shards int
}

// Status is the outcome class of a run.
type Status int

const (
	// OK: completed.
	OK Status = iota
	// Crashed: out of memory, like the paper's crash entries.
	Crashed
	// Timeout: exceeded the run budget and was terminated.
	Timeout
	// NotSupported: the platform cannot hold the dataset at all
	// (Neo4j + Friendster: ingestion infeasible).
	NotSupported
)

var statusNames = [...]string{"ok", "crash", "timeout", "n/a"}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result is the outcome of one run.
type Result struct {
	Platform  string
	Algorithm string
	Dataset   string

	Status Status
	Err    error

	// Breakdown is the simulated timing at the scaled workload.
	Breakdown cluster.Breakdown
	// Seconds is the job execution time T projected to the paper-scale
	// dataset: data-dependent time scales with the dataset's edge
	// divisor, fixed launch overheads do not. This is the number
	// comparable to the paper's figures.
	Seconds float64
	// ComputeSeconds and OverheadSeconds split Seconds into the
	// paper's Tc and To.
	ComputeSeconds  float64
	OverheadSeconds float64

	// Profile is the measured execution record.
	Profile *cluster.ExecutionProfile
	// Output is the algorithm result (*algo.StatsResult etc.).
	Output any
	// Iterations executed.
	Iterations int

	// projV/projE are the paper-scale dataset dimensions for the
	// throughput metrics.
	projV, projE int64
}

// EPS returns edges per second at paper scale (Section 2.1).
func (r *Result) EPS() float64 {
	if r.Seconds <= 0 || r.Status != OK {
		return 0
	}
	return float64(r.paperEdges()) / r.Seconds
}

// VPS returns vertices per second at paper scale.
func (r *Result) VPS() float64 {
	if r.Seconds <= 0 || r.Status != OK {
		return 0
	}
	return float64(r.paperVertices()) / r.Seconds
}

func (r *Result) paperEdges() int64    { return r.projE }
func (r *Result) paperVertices() int64 { return r.projV }

// Platform is one system under test.
type Platform interface {
	// Name as in Table 4.
	Name() string
	// Version as in Table 4.
	Version() string
	// Kind is the taxonomy cell ("Generic, Distributed", ...).
	Kind() string
	// Costs returns the platform's calibrated cost model.
	Costs() cluster.CostModel
	// Run executes one experiment.
	Run(spec Spec) *Result
}

// All returns the six platforms in Table 4 order.
func All() []Platform {
	return []Platform{
		NewHadoop(), NewYARN(), NewStratosphere(),
		NewGiraph(), NewGraphLab(false), NewNeo4j(),
	}
}

// ByName resolves a platform name ("GraphLab(mp)" selects the
// multi-part loader variant).
func ByName(name string) (Platform, error) {
	switch name {
	case "Hadoop":
		return NewHadoop(), nil
	case "YARN":
		return NewYARN(), nil
	case "Stratosphere":
		return NewStratosphere(), nil
	case "Giraph":
		return NewGiraph(), nil
	case "GraphLab":
		return NewGraphLab(false), nil
	case "GraphLab(mp)":
		return NewGraphLab(true), nil
	case "Neo4j":
		return NewNeo4j(), nil
	}
	return nil, fmt.Errorf("platform: unknown platform %q", name)
}

// projection returns the scale divisor used to project data-dependent
// time and memory back to paper scale.
func projection(spec Spec) int64 {
	p := int64(1)
	if spec.Dataset.EDivisor > 0 {
		p = int64(spec.Dataset.EDivisor)
	}
	if spec.ScaleFactor > 1 {
		p *= int64(spec.ScaleFactor)
	}
	return p
}

// finish computes the breakdown, projection, and timeout status shared
// by every platform.
func finish(r *Result, cm cluster.CostModel, hw cluster.Hardware, proj int64, timeout float64) {
	b := cm.Time(r.Profile, hw)
	r.Breakdown = b
	dataTime := b.Total - b.Setup
	if dataTime < 0 {
		dataTime = 0
	}
	r.Seconds = b.Setup + dataTime*float64(proj)
	r.ComputeSeconds = b.Compute * float64(proj)
	r.OverheadSeconds = r.Seconds - r.ComputeSeconds
	r.Iterations = r.Profile.Iterations
	if r.Status == OK && timeout > 0 && r.Seconds > timeout {
		r.Status = Timeout
		r.Err = fmt.Errorf("terminated after exceeding %.0f h (projected %.1f h)",
			timeout/3600, r.Seconds/3600)
	}
}

// crashed marks r as crashed with err, for a Run to return.
func crashed(r *Result, err error) *Result {
	r.Status = Crashed
	r.Err = err
	return r
}

func fillIDs(r *Result, spec Spec, platformName string) {
	r.Platform = platformName
	r.Algorithm = spec.Algorithm
	r.Dataset = spec.Dataset.Name
	vdiv := max64(1, int64(spec.Dataset.VDivisor))
	if spec.ScaleFactor > 1 {
		vdiv *= int64(spec.ScaleFactor)
	}
	r.projV = int64(spec.G.NumVertices()) * vdiv
	r.projE = spec.G.NumEdges() * projection(spec)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// partitionFor builds the placement a spec requests, or nil for the
// engines' default layouts.
func partitionFor(spec Spec) (*partition.Partitioning, error) {
	if spec.Partitioner == "" && spec.Shards <= 0 {
		return nil, nil
	}
	strategy := spec.Partitioner
	if strategy == "" {
		strategy = partition.Hash
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = spec.HW.Nodes
	}
	return partition.Build(strategy, spec.G, shards)
}

// recordPartition attaches the placement to the profile, accounts the
// placement pass itself (a streaming assignment over vertices and
// arcs, shipping each cut arc's record to its remote owner), and
// reports the quality stats as gauges so monitor curves show them.
func recordPartition(pt *partition.Partitioning, g *graph.Graph, profile *cluster.ExecutionProfile) {
	profile.Part = pt
	st := pt.ComputeStats(g)
	profile.AddPhase(cluster.Phase{
		Name: "partition:" + pt.Strategy, Kind: cluster.PhaseShuffle,
		Ops:      int64(st.Vertices) + st.Arcs,
		Net:      st.CutArcs * 16,
		Barriers: 1, Tasks: pt.Shards,
	})
	reg := profile.Session().R()
	reg.Gauge("partition.shards").Set(int64(pt.Shards))
	reg.Gauge("partition.cut_arcs").Set(st.CutArcs)
	reg.Gauge("partition.replication_x1000").Set(int64(st.ReplicationFactor * 1000))
	reg.Gauge("partition.load_skew_x1000").Set(int64(st.LoadSkew * 1000))
}

// ---- Hadoop ---------------------------------------------------------

type mrPlatform struct {
	name, version string
	costs         cluster.CostModel
	newEngine     func(hw cluster.Hardware, sess *obs.Session, inj *fault.Injector) (*mapreduce.Engine, func(), error)
}

// NewHadoop returns the Hadoop platform (hadoop-0.20.203.0 in the
// paper).
func NewHadoop() Platform {
	return &mrPlatform{
		name: "Hadoop", version: "hadoop-0.20.203.0", costs: cluster.HadoopCosts(),
		newEngine: func(hw cluster.Hardware, sess *obs.Session, inj *fault.Injector) (*mapreduce.Engine, func(), error) {
			e := mapreduce.New(hw)
			e.Profile.Obs = sess
			e.Profile.Fault = inj
			return e, func() {}, nil
		},
	}
}

// NewYARN returns the YARN platform (hadoop-2.0.3-alpha): the same
// MapReduce execution inside an RM/AM container deployment.
func NewYARN() Platform {
	return &mrPlatform{
		name: "YARN", version: "hadoop-2.0.3-alpha", costs: cluster.YARNCosts(),
		newEngine: func(hw cluster.Hardware, sess *obs.Session, inj *fault.Injector) (*mapreduce.Engine, func(), error) {
			rm := yarn.NewResourceManager(hw)
			rm.Obs = sess
			rm.Fault = inj
			am, err := rm.Submit("graphbench", 1<<30)
			if err != nil {
				return nil, nil, err
			}
			return am.Engine(), am.Finish, nil
		},
	}
}

func (p *mrPlatform) Name() string             { return p.name }
func (p *mrPlatform) Version() string          { return p.version }
func (p *mrPlatform) Kind() string             { return "Generic, Distributed" }
func (p *mrPlatform) Costs() cluster.CostModel { return p.costs }

func (p *mrPlatform) Run(spec Spec) *Result {
	r := &Result{Profile: &cluster.ExecutionProfile{}}
	fillIDs(r, spec, p.name)
	eng, release, err := p.newEngine(spec.HW, spec.Obs, spec.Fault)
	if err != nil {
		return crashed(r, err)
	}
	defer release()
	pt, err := partitionFor(spec)
	if err != nil {
		return crashed(r, err)
	}
	if pt != nil {
		recordPartition(pt, spec.G, eng.Profile)
	}

	var out any
	switch spec.Algorithm {
	case STATS:
		out, err = boxed(mralgo.Stats(eng, spec.G))
	case BFS:
		out, err = boxed(mralgo.BFS(eng, spec.G, spec.Params.BFSSource))
	case CONN:
		out, err = boxed(mralgo.Conn(eng, spec.G))
	case CD:
		out, err = boxed(mralgo.CD(eng, spec.G, spec.Params))
	case EVO:
		out, err = boxed(mralgo.EVO(eng, spec.G, spec.Params))
	case SSSP:
		out, err = boxed(mralgo.SSSP(eng, weightedFor(spec.G), spec.Params.BFSSource))
	default:
		err = fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
	if err != nil {
		return crashed(r, err)
	}
	r.Output = out
	r.Profile = eng.Profile

	// Memory: the busiest node must hold its split, its map output,
	// and its shuffle input in the task JVMs (projected to paper
	// scale).
	proj := projection(spec)
	demand := int64(float64(p.costs.MemBase) +
		p.costs.GCFactor*p.costs.GraphMemFactor*float64(eng.PeakJobBytesPerNode*proj))
	if err := cluster.CheckMemory(demand, spec.HW); err != nil {
		return crashed(r, err)
	}
	finish(r, p.costs, spec.HW, proj, DistributedTimeout)
	return r
}

// boxed lets a typed (result, error) pair be assigned to (out any, err).
func boxed[T any](v T, err error) (any, error) { return v, err }

// ---- Stratosphere ---------------------------------------------------

type stratoPlatform struct{}

// NewStratosphere returns the Stratosphere platform (0.2).
func NewStratosphere() Platform { return stratoPlatform{} }

func (stratoPlatform) Name() string             { return "Stratosphere" }
func (stratoPlatform) Version() string          { return "Stratosphere-0.2" }
func (stratoPlatform) Kind() string             { return "Generic, Distributed" }
func (stratoPlatform) Costs() cluster.CostModel { return cluster.StratosphereCosts() }

func (p stratoPlatform) Run(spec Spec) *Result {
	r := &Result{Profile: &cluster.ExecutionProfile{}}
	fillIDs(r, spec, p.Name())
	eng := dataflow.New(spec.HW)
	eng.Profile.Obs = spec.Obs
	eng.Profile.Fault = spec.Fault
	pt, err := partitionFor(spec)
	if err != nil {
		return crashed(r, err)
	}
	if pt != nil {
		recordPartition(pt, spec.G, eng.Profile)
	}

	var out any
	switch spec.Algorithm {
	case STATS:
		out, err = boxed(pactalgo.Stats(eng, spec.G))
	case BFS:
		out, err = boxed(pactalgo.BFS(eng, spec.G, spec.Params.BFSSource))
	case CONN:
		out, err = boxed(pactalgo.Conn(eng, spec.G))
	case CD:
		out, err = boxed(pactalgo.CD(eng, spec.G, spec.Params))
	case EVO:
		out, err = boxed(pactalgo.EVO(eng, spec.G, spec.Params))
	case SSSP:
		out, err = boxed(pactalgo.SSSP(eng, weightedFor(spec.G), spec.Params.BFSSource))
	default:
		err = fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
	if err != nil {
		return crashed(r, err)
	}
	r.Output = out
	r.Profile = eng.Profile
	// Stratosphere manages its pre-allocated memory and spills rather
	// than crashing; its failure mode in the paper is running out of
	// *time* (STATS on DotaLeague terminated near 4 hours), which the
	// shared timeout check below applies.
	finish(r, p.Costs(), spec.HW, projection(spec), DistributedTimeout)
	return r
}

// ---- Giraph ---------------------------------------------------------

type giraphPlatform struct{}

// NewGiraph returns the Giraph platform (0.2, revision 1336743).
func NewGiraph() Platform { return giraphPlatform{} }

func (giraphPlatform) Name() string             { return "Giraph" }
func (giraphPlatform) Version() string          { return "Giraph 0.2 (rev 1336743)" }
func (giraphPlatform) Kind() string             { return "Graph, Distributed" }
func (giraphPlatform) Costs() cluster.CostModel { return cluster.GiraphCosts() }

func (p giraphPlatform) Run(spec Spec) *Result {
	r := &Result{Profile: &cluster.ExecutionProfile{Obs: spec.Obs, Fault: spec.Fault}}
	fillIDs(r, spec, p.Name())
	cm := p.Costs()
	proj := projection(spec)
	hw := spec.HW

	// Graph memory at paper scale; what remains of the node budget
	// bounds the per-superstep message buffers.
	graphPerNode := float64(spec.G.MemoryFootprint()) * float64(proj) / float64(hw.Nodes)
	budget := float64(hw.MemPerNode)/cm.GCFactor - float64(cm.MemBase) - cm.GraphMemFactor*graphPerNode
	if budget <= 0 {
		return crashed(r, fmt.Errorf("graph partition alone exceeds node memory: %w", cluster.ErrOutOfMemory))
	}
	sendLimit := int64(budget / (cm.MemPerMsgByte * float64(proj)))
	pt, err := partitionFor(spec)
	if err != nil {
		return crashed(r, err)
	}
	if pt != nil {
		recordPartition(pt, spec.G, r.Profile)
	}

	var out any
	switch spec.Algorithm {
	case STATS:
		res, _, e := pregelalgo.Stats(spec.G, hw, sendLimit, r.Profile)
		out, err = res, e
	case BFS:
		res, _, e := pregelalgo.BFS(spec.G, hw, spec.Params.BFSSource, sendLimit, r.Profile)
		out, err = res, e
	case CONN:
		res, _, e := pregelalgo.Conn(spec.G, hw, sendLimit, r.Profile)
		out, err = res, e
	case CD:
		res, _, e := pregelalgo.CD(spec.G, hw, spec.Params, sendLimit, r.Profile)
		out, err = res, e
	case EVO:
		res, _, e := pregelalgo.EVO(spec.G, hw, spec.Params, sendLimit, r.Profile)
		out, err = res, e
	case SSSP:
		res, _, e := pregelalgo.SSSP(weightedFor(spec.G), hw, spec.Params.BFSSource, sendLimit, r.Profile)
		out, err = res, e
	default:
		err = fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
	if err != nil {
		return crashed(r, err)
	}
	r.Output = out
	// Giraph reads its input once and holds everything in memory.
	r.Profile.Phases = append([]cluster.Phase{{
		Name: "giraph:read", Kind: cluster.PhaseRead,
		DiskRead: graph.TextSize(spec.G),
	}}, r.Profile.Phases...)
	finish(r, cm, hw, proj, DistributedTimeout)
	return r
}

// ---- GraphLab -------------------------------------------------------

type graphlabPlatform struct {
	mp bool
}

// NewGraphLab returns the GraphLab platform (2.1.4434); mp selects the
// multi-part loading variant GraphLab(mp) of Section 4.3.1.
func NewGraphLab(mp bool) Platform { return graphlabPlatform{mp: mp} }

func (p graphlabPlatform) Name() string {
	if p.mp {
		return "GraphLab(mp)"
	}
	return "GraphLab"
}
func (graphlabPlatform) Version() string          { return "GraphLab 2.1.4434" }
func (graphlabPlatform) Kind() string             { return "Graph, Distributed" }
func (graphlabPlatform) Costs() cluster.CostModel { return cluster.GraphLabCosts() }

func (p graphlabPlatform) Run(spec Spec) *Result {
	r := &Result{Profile: &cluster.ExecutionProfile{Obs: spec.Obs, Fault: spec.Fault}}
	fillIDs(r, spec, p.Name())
	inputBytes := graph.TextSize(spec.G)
	pt, err := partitionFor(spec)
	if err != nil {
		return crashed(r, err)
	}
	if pt != nil {
		recordPartition(pt, spec.G, r.Profile)
	}

	var out any
	switch spec.Algorithm {
	case STATS:
		res, _, e := gasalgo.Stats(spec.G, spec.HW, inputBytes, p.mp, r.Profile)
		out, err = res, e
	case BFS:
		res, _, e := gasalgo.BFS(spec.G, spec.HW, spec.Params.BFSSource, inputBytes, p.mp, r.Profile)
		out, err = res, e
	case CONN:
		res, _, e := gasalgo.Conn(spec.G, spec.HW, inputBytes, p.mp, r.Profile)
		out, err = res, e
	case CD:
		res, _, e := gasalgo.CD(spec.G, spec.HW, spec.Params, inputBytes, p.mp, r.Profile)
		out, err = res, e
	case EVO:
		res, e := gasalgo.EVO(spec.G, spec.HW, spec.Params, inputBytes, p.mp, r.Profile)
		out, err = res, e
	case SSSP:
		res, _, e := gasalgo.SSSP(weightedFor(spec.G), spec.HW, spec.Params.BFSSource, inputBytes, p.mp, r.Profile)
		out, err = res, e
	default:
		err = fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
	if err != nil {
		return crashed(r, err)
	}
	r.Output = out

	cm := p.Costs()
	proj := projection(spec)
	demand := int64(cm.GCFactor * (float64(cm.MemBase) +
		cm.GraphMemFactor*float64(r.Profile.PeakMemPerNode*proj)))
	if err := cluster.CheckMemory(demand, spec.HW); err != nil {
		return crashed(r, err)
	}
	finish(r, cm, spec.HW, proj, DistributedTimeout)
	return r
}

// ---- Neo4j ----------------------------------------------------------

type neo4jPlatform struct{}

// NewNeo4j returns the Neo4j platform (1.5), a single-machine graph
// database.
func NewNeo4j() Platform { return neo4jPlatform{} }

func (neo4jPlatform) Name() string             { return "Neo4j" }
func (neo4jPlatform) Version() string          { return "Neo4j 1.5" }
func (neo4jPlatform) Kind() string             { return "Graph, Non-distributed" }
func (neo4jPlatform) Costs() cluster.CostModel { return cluster.Neo4jCosts() }

func (p neo4jPlatform) Run(spec Spec) *Result {
	r := &Result{Profile: &cluster.ExecutionProfile{Obs: spec.Obs}}
	fillIDs(r, spec, p.Name())
	proj := projection(spec)

	cfg := graphdb.DefaultConfig()
	cfg.Projection = proj
	sg := spec.G
	if spec.Algorithm == SSSP {
		// SSSP reads weight properties; open the store over the shared
		// weighted view (topology and caches are unchanged).
		sg = weightedFor(sg)
	}
	db := graphdb.Open(sg, cfg)

	if db.IngestSeconds() > IngestionLimit {
		r.Status = NotSupported
		r.Err = errors.New("data ingestion infeasible on a single machine (Table 6: N/A)")
		return r
	}

	hw := cluster.SingleNode()
	run := func(profile *cluster.ExecutionProfile) (any, error) {
		switch spec.Algorithm {
		case STATS:
			return dbalgo.Stats(db, profile)
		case BFS:
			return dbalgo.BFS(db, spec.Params.BFSSource, profile)
		case CONN:
			return dbalgo.Conn(db, profile)
		case CD:
			return dbalgo.CD(db, spec.Params, profile)
		case EVO:
			return dbalgo.EVO(db, spec.Params, profile)
		case SSSP:
			return dbalgo.SSSP(db, spec.Params.BFSSource, profile)
		}
		return nil, fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}

	if spec.WarmCache && !spec.Cold {
		// Cold pass to fill the caches, discarded (the paper reports
		// hot-cache numbers in Figure 1).
		if _, err := run(&cluster.ExecutionProfile{}); err != nil {
			return crashed(r, err)
		}
	}
	out, err := run(r.Profile)
	if err != nil {
		return crashed(r, err)
	}
	r.Output = out
	finish(r, p.Costs(), hw, proj, SingleNodeTimeout)
	return r
}
