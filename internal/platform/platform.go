// Package platform presents the six systems of the paper's Table 4 —
// Hadoop, YARN, Stratosphere, Giraph, GraphLab (plus the GraphLab(mp)
// tuning variant), and Neo4j — behind one interface. Each platform is
// one row: its Table 4 entry, its cost model, timeout and resource
// signature, and an exec hook that opens its engine and runs an
// algorithm on it. One Run drives every row and decides each run's
// status (the paper's crash, timeout and N/A entries) in one place; it
// is what the benchmark harness drives for every experiment. One
// Oracle decides whether a run's output is right.
package platform

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

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
	"repro/internal/monitor"
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

// Oracle decides whether a run's output on one graph is right, against
// the sequential references of internal/algo, Graphalytics-style:
// structural certificates where they exist (the BFS parent/level rules
// and the SSSP triangle-inequality certificate, both O(V+E)), exact
// equality for the deterministic label and evolution algorithms (CONN,
// CD, EVO), and equality within 1e-6 for the one floating-point
// aggregate (STATS AvgLCC). Each reference is computed on first use and
// kept; Check is safe for concurrent use.
type Oracle struct {
	g        *graph.Graph
	src      graph.VertexID
	weighted func() *graph.Graph
	conn     func() []graph.VertexID
	cd       func() algo.CDResult
	stats    func() algo.StatsResult
	evo      func() algo.EVOResult
}

// NewOracle returns the oracle for runs on g under params, the spec's
// G and Params: BFS and SSSP start at params.BFSSource, and SSSP is
// checked on the weighted view every platform runs it on.
func NewOracle(g *graph.Graph, params algo.Params) *Oracle {
	return &Oracle{
		g: g, src: params.BFSSource,
		weighted: sync.OnceValue(func() *graph.Graph { return weightedFor(g) }),
		conn:     sync.OnceValue(g.ConnectedComponents),
		cd:       sync.OnceValue(func() algo.CDResult { return algo.RefCD(g, params) }),
		stats:    sync.OnceValue(func() algo.StatsResult { return algo.RefStats(g) }),
		evo:      sync.OnceValue(func() algo.EVOResult { return algo.RefEVO(g, params) }),
	}
}

// Check returns nil when out, a run's Output, satisfies its
// algorithm's rule, and otherwise the rule it breaks.
func (o *Oracle) Check(out any) error {
	switch r := out.(type) {
	case algo.BFSResult:
		// Graph500-style certificate: cheaper than a reference
		// traversal and stronger than comparing level arrays.
		return algo.ValidateBFS(o.g, o.src, &r)
	case algo.SSSPResult:
		return algo.ValidateSSSP(o.weighted(), o.src, &r)
	case algo.ConnResult:
		want := o.conn()
		if !reflect.DeepEqual(r.Labels, want) {
			return fmt.Errorf("CONN labels differ from the component-minimum reference")
		}
		if n := algo.CountLabels(want); r.Components != n {
			return fmt.Errorf("CONN components = %d, reference has %d", r.Components, n)
		}
		return nil
	case algo.CDResult:
		want := o.cd()
		if !reflect.DeepEqual(r.Labels, want.Labels) {
			return fmt.Errorf("CD labels differ from the reference fixed point")
		}
		if r.Communities != want.Communities {
			return fmt.Errorf("CD communities = %d, reference has %d", r.Communities, want.Communities)
		}
		return nil
	case algo.StatsResult:
		want := o.stats()
		if r.Vertices != want.Vertices || r.Edges != want.Edges {
			return fmt.Errorf("STATS dimensions %d/%d, reference %d/%d",
				r.Vertices, r.Edges, want.Vertices, want.Edges)
		}
		if math.Abs(r.AvgLCC-want.AvgLCC) > 1e-6 {
			return fmt.Errorf("STATS AvgLCC = %v, reference %v", r.AvgLCC, want.AvgLCC)
		}
		return nil
	case algo.EVOResult:
		want := o.evo()
		if r.NewVertices != want.NewVertices || !reflect.DeepEqual(r.Edges, want.Edges) {
			return fmt.Errorf("EVO growth differs from the reference forest-fire burn")
		}
		return nil
	}
	return fmt.Errorf("no validation rule for output type %T", out)
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
	// Algorithm is one of STATS, BFS, CONN, CD, EVO, SSSP.
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
	// Output is the algorithm result, a value (algo.StatsResult etc.).
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
	return float64(r.projE) / r.Seconds
}

// VPS returns vertices per second at paper scale.
func (r *Result) VPS() float64 {
	if r.Seconds <= 0 || r.Status != OK {
		return 0
	}
	return float64(r.projV) / r.Seconds
}

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

// rows are the platforms, the six of Table 4 in its order and then
// GraphLab's multi-part loader variant GraphLab(mp) (Section 4.3.1).
var rows = []*row{
	{name: "Hadoop", version: "hadoop-0.20.203.0", kind: "Generic, Distributed",
		costs: cluster.HadoopCosts(), timeout: DistributedTimeout, exec: mrExec(openHadoop),
		sig: monitor.Signature{ComputeCPU: 8, BaseMemGB: 2.5, PeakMemGB: 12, Sawtooth: true,
			PeakNetMbps: 96, MasterMemGB: 8, MasterNetKbps: 320}},
	{name: "YARN", version: "hadoop-2.0.3-alpha", kind: "Generic, Distributed",
		costs: cluster.YARNCosts(), timeout: DistributedTimeout, exec: mrExec(openYARN),
		sig: monitor.Signature{ComputeCPU: 8, BaseMemGB: 2.5, PeakMemGB: 11, Sawtooth: true,
			PeakNetMbps: 90, MasterMemGB: 8, MasterNetKbps: 320}},
	{name: "Stratosphere", version: "Stratosphere-0.2", kind: "Generic, Distributed",
		costs: cluster.StratosphereCosts(), timeout: DistributedTimeout, exec: stratoExec,
		sig: monitor.Signature{ComputeCPU: 6, BaseMemGB: 2.5, PeakMemGB: 20, Preallocates: true,
			PeakNetMbps: 128, MasterMemGB: 8, MasterNetKbps: 1000}},
	{name: "Giraph", version: "Giraph 0.2 (rev 1336743)", kind: "Graph, Distributed",
		costs: cluster.GiraphCosts(), timeout: DistributedTimeout, exec: giraphExec,
		sig: monitor.Signature{ComputeCPU: 3, BaseMemGB: 2.5, PeakMemGB: 7,
			PeakNetMbps: 14, MasterMemGB: 8, MasterNetKbps: 360}},
	{name: "GraphLab", version: "GraphLab 2.1.4434", kind: "Graph, Distributed",
		costs: cluster.GraphLabCosts(), timeout: DistributedTimeout, exec: graphlabExec(false),
		sig: graphLabSignature},
	{name: "Neo4j", version: "Neo4j 1.5", kind: "Graph, Non-distributed",
		costs: cluster.Neo4jCosts(), timeout: SingleNodeTimeout, single: true, exec: neo4jExec,
		sig: monitor.Signature{ComputeCPU: 12, BaseMemGB: 2, PeakMemGB: 20}},
	{name: "GraphLab(mp)", version: "GraphLab 2.1.4434", kind: "Graph, Distributed",
		costs: cluster.GraphLabCosts(), timeout: DistributedTimeout, exec: graphlabExec(true),
		sig: graphLabSignature},
}

// graphLabSignature is GraphLab's resource signature, which the
// multi-part loader does not change.
var graphLabSignature = monitor.Signature{ComputeCPU: 2.5, BaseMemGB: 2.5, PeakMemGB: 5,
	PeakNetMbps: 10, MasterMemGB: 8, MasterNetKbps: 240}

// All returns the six platforms in Table 4 order.
func All() []Platform {
	all := make([]Platform, 6)
	for i, p := range rows[:6] {
		all[i] = p
	}
	return all
}

// ByName resolves a platform name ("GraphLab(mp)" selects the
// multi-part loader variant).
func ByName(name string) (Platform, error) {
	for _, p := range rows {
		if p.name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("platform: unknown platform %q", name)
}

// TimeoutOf returns the projected seconds after which p terminates a
// run: SingleNodeTimeout for Neo4j, DistributedTimeout for the rest. p
// must come from All or ByName.
func TimeoutOf(p Platform) float64 { return p.(*row).timeout }

// SignatureOf returns p's resource signature, what Section 4.2 of the
// paper observed of its nodes' CPU, memory and network. p must come
// from All or ByName.
func SignatureOf(p Platform) monitor.Signature { return p.(*row).sig }

// row is one platform: its Table 4 entry, its cost model, timeout and
// resource signature, and exec, which opens the platform's engine and
// runs an algorithm on it. Run scores what exec returns.
type row struct {
	name, version, kind string
	costs               cluster.CostModel
	timeout             float64
	sig                 monitor.Signature
	// single marks a one-machine platform, priced on
	// cluster.SingleNode rather than on the spec's cluster.
	single bool
	exec   execFunc
}

// execFunc runs spec on a platform, recording into r.Profile or
// pointing it at the engine's own profile. It returns the algorithm's
// output and the run's memory demand per node at paper scale (zero
// where the platform spills instead of crashing). An error is a crash
// before or during the run, errNotIngested a refusal (n/a).
type execFunc func(r *Result, spec Spec, cm cluster.CostModel, proj int64) (out any, demand int64, err error)

func (p *row) Name() string             { return p.name }
func (p *row) Version() string          { return p.version }
func (p *row) Kind() string             { return p.kind }
func (p *row) Costs() cluster.CostModel { return p.costs }

// errNotIngested is Neo4j's refusal of a dataset a single machine
// cannot ingest (Neo4j's Friendster entry in Table 6).
var errNotIngested = errors.New("data ingestion infeasible on a single machine (Table 6: N/A)")

// Run executes spec on the platform and decides the run's status, in
// this order:
//  1. a refusal before the run: Giraph's graph partition alone
//     exceeding node memory is a crash, Neo4j's ingestion limit n/a;
//  2. an error opening the engine (YARN's submit), placing the graph
//     or running the algorithm is a crash;
//  3. the run's memory demand over the node budget is a crash (Hadoop
//     and YARN: task JVMs; GraphLab: its in-memory graph);
//  4. the projected time over the platform's timeout is a timeout
//     (Stratosphere spills rather than crashing; its paper failure is
//     STATS on DotaLeague terminated near 4 hours).
func (p *row) Run(spec Spec) *Result {
	vproj, proj := spec.Dataset.Projection(spec.ScaleFactor)
	r := &Result{
		Platform: p.name, Algorithm: spec.Algorithm, Dataset: spec.Dataset.Name,
		Profile: &cluster.ExecutionProfile{Obs: spec.Obs, Fault: spec.Fault},
		projV:   int64(spec.G.NumVertices()) * vproj,
		projE:   spec.G.NumEdges() * proj,
	}
	hw := spec.HW
	if p.single {
		hw = cluster.SingleNode()
	}
	out, demand, err := p.exec(r, spec, p.costs, proj)
	if err == nil {
		r.Output = out
		err = cluster.CheckMemory(demand, hw)
	}
	if err != nil {
		r.Status, r.Err = Crashed, err
		if errors.Is(err, errNotIngested) {
			r.Status = NotSupported
		}
		return r
	}

	b := p.costs.Time(r.Profile, hw)
	r.Breakdown = b
	r.Seconds = b.Setup + max(0, b.Total-b.Setup)*float64(proj)
	r.ComputeSeconds = b.Compute * float64(proj)
	r.OverheadSeconds = r.Seconds - r.ComputeSeconds
	r.Iterations = r.Profile.Iterations
	if r.Seconds > p.timeout {
		r.Status = Timeout
		r.Err = fmt.Errorf("terminated after exceeding %.0f h (projected %.1f h)",
			p.timeout/3600, r.Seconds/3600)
	}
	return r
}

// place builds the placement a spec requests, if any, attaches it to
// the profile, accounts the placement pass itself (a streaming
// assignment over vertices and arcs, shipping each cut arc's record to
// its remote owner), and reports the quality stats as gauges so
// monitor curves show them. Without Partitioner and Shards the engines
// keep their default layouts.
func place(spec Spec, profile *cluster.ExecutionProfile) error {
	if spec.Partitioner == "" && spec.Shards <= 0 {
		return nil
	}
	strategy := spec.Partitioner
	if strategy == "" {
		strategy = partition.Hash
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = spec.HW.Nodes
	}
	pt, err := partition.Build(strategy, spec.G, shards)
	if err != nil {
		return err
	}
	profile.Part = pt
	st := pt.ComputeStats(spec.G)
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
	return nil
}

func unknownAlgorithm(spec Spec) error {
	return fmt.Errorf("unknown algorithm %q", spec.Algorithm)
}

// ---- Hadoop and YARN ------------------------------------------------

// openHadoop opens a MapReduce engine.
func openHadoop(spec Spec) (*mapreduce.Engine, func(), error) {
	e := mapreduce.New(spec.HW)
	e.Profile.Obs, e.Profile.Fault = spec.Obs, spec.Fault
	return e, func() {}, nil
}

// openYARN opens the same MapReduce engine inside an RM/AM container
// deployment; its profile starts with any AM relaunches.
func openYARN(spec Spec) (*mapreduce.Engine, func(), error) {
	rm := yarn.NewResourceManager(spec.HW)
	rm.Obs, rm.Fault = spec.Obs, spec.Fault
	am, err := rm.Submit("graphbench", 1<<30)
	if err != nil {
		return nil, nil, err
	}
	return am.Engine(), am.Finish, nil
}

// mrExec runs the MapReduce algorithms on the engine open returns. The
// busiest node must hold its split, its map output, and its shuffle
// input in the task JVMs.
func mrExec(open func(Spec) (*mapreduce.Engine, func(), error)) execFunc {
	return func(r *Result, spec Spec, cm cluster.CostModel, proj int64) (out any, demand int64, err error) {
		eng, release, err := open(spec)
		if err != nil {
			return nil, 0, err
		}
		defer release()
		r.Profile = eng.Profile
		if err := place(spec, eng.Profile); err != nil {
			return nil, 0, err
		}
		switch spec.Algorithm {
		case STATS:
			out, err = mralgo.Stats(eng, spec.G)
		case BFS:
			out, err = mralgo.BFS(eng, spec.G, spec.Params.BFSSource)
		case CONN:
			out, err = mralgo.Conn(eng, spec.G)
		case CD:
			out, err = mralgo.CD(eng, spec.G, spec.Params)
		case EVO:
			out, err = mralgo.EVO(eng, spec.G, spec.Params)
		case SSSP:
			out, err = mralgo.SSSP(eng, weightedFor(spec.G), spec.Params.BFSSource)
		default:
			err = unknownAlgorithm(spec)
		}
		demand = int64(float64(cm.MemBase) +
			cm.GCFactor*cm.GraphMemFactor*float64(eng.PeakJobBytesPerNode*proj))
		return out, demand, err
	}
}

// ---- Stratosphere ---------------------------------------------------

// stratoExec runs the PACT algorithms. Stratosphere manages its
// pre-allocated memory and spills rather than crashing.
func stratoExec(r *Result, spec Spec, _ cluster.CostModel, _ int64) (out any, _ int64, err error) {
	eng := dataflow.New(spec.HW)
	eng.Profile = r.Profile
	if err := place(spec, eng.Profile); err != nil {
		return nil, 0, err
	}
	switch spec.Algorithm {
	case STATS:
		out, err = pactalgo.Stats(eng, spec.G)
	case BFS:
		out, err = pactalgo.BFS(eng, spec.G, spec.Params.BFSSource)
	case CONN:
		out, err = pactalgo.Conn(eng, spec.G)
	case CD:
		out, err = pactalgo.CD(eng, spec.G, spec.Params)
	case EVO:
		out, err = pactalgo.EVO(eng, spec.G, spec.Params)
	case SSSP:
		out, err = pactalgo.SSSP(eng, weightedFor(spec.G), spec.Params.BFSSource)
	default:
		err = unknownAlgorithm(spec)
	}
	return out, 0, err
}

// ---- Giraph ---------------------------------------------------------

// giraphExec runs the vertex-centric algorithms. What remains of the
// node budget after the graph (at paper scale) bounds the
// per-superstep message buffers; a superstep sending more aborts the
// run out of memory.
func giraphExec(r *Result, spec Spec, cm cluster.CostModel, proj int64) (out any, _ int64, err error) {
	hw := spec.HW
	graphPerNode := float64(spec.G.MemoryFootprint()) * float64(proj) / float64(hw.Nodes)
	budget := float64(hw.MemPerNode)/cm.GCFactor - float64(cm.MemBase) - cm.GraphMemFactor*graphPerNode
	if budget <= 0 {
		return nil, 0, fmt.Errorf("graph partition alone exceeds node memory: %w", cluster.ErrOutOfMemory)
	}
	limit := int64(budget / (cm.MemPerMsgByte * float64(proj)))
	if err := place(spec, r.Profile); err != nil {
		return nil, 0, err
	}
	g, src, prof := spec.G, spec.Params.BFSSource, r.Profile
	switch spec.Algorithm {
	case STATS:
		out, _, err = pregelalgo.Stats(g, hw, limit, prof)
	case BFS:
		out, _, err = pregelalgo.BFS(g, hw, src, limit, prof)
	case CONN:
		out, _, err = pregelalgo.Conn(g, hw, limit, prof)
	case CD:
		out, _, err = pregelalgo.CD(g, hw, spec.Params, limit, prof)
	case EVO:
		out, _, err = pregelalgo.EVO(g, hw, spec.Params, limit, prof)
	case SSSP:
		out, _, err = pregelalgo.SSSP(weightedFor(g), hw, src, limit, prof)
	default:
		err = unknownAlgorithm(spec)
	}
	if err == nil {
		// Giraph reads its input once and holds everything in memory.
		prof.Phases = append([]cluster.Phase{{
			Name: "giraph:read", Kind: cluster.PhaseRead, DiskRead: graph.TextSize(g),
		}}, prof.Phases...)
	}
	return out, 0, err
}

// ---- GraphLab -------------------------------------------------------

// graphlabExec runs the GAS algorithms; mp selects the multi-part
// loader. The busiest node must hold its graph state after the run.
func graphlabExec(mp bool) execFunc {
	return func(r *Result, spec Spec, cm cluster.CostModel, proj int64) (out any, demand int64, err error) {
		if err := place(spec, r.Profile); err != nil {
			return nil, 0, err
		}
		g, hw, src, prof := spec.G, spec.HW, spec.Params.BFSSource, r.Profile
		in := graph.TextSize(g)
		switch spec.Algorithm {
		case STATS:
			out, _, err = gasalgo.Stats(g, hw, in, mp, prof)
		case BFS:
			out, _, err = gasalgo.BFS(g, hw, src, in, mp, prof)
		case CONN:
			out, _, err = gasalgo.Conn(g, hw, in, mp, prof)
		case CD:
			out, _, err = gasalgo.CD(g, hw, spec.Params, in, mp, prof)
		case EVO:
			out, err = gasalgo.EVO(g, hw, spec.Params, in, mp, prof)
		case SSSP:
			out, _, err = gasalgo.SSSP(weightedFor(g), hw, src, in, mp, prof)
		default:
			err = unknownAlgorithm(spec)
		}
		demand = int64(cm.GCFactor * (float64(cm.MemBase) +
			cm.GraphMemFactor*float64(prof.PeakMemPerNode*proj)))
		return out, demand, err
	}
}

// ---- Neo4j ----------------------------------------------------------

// neo4jExec runs the embedded-database algorithms on one machine. It
// ignores placement, and fault injection is out of its scope.
func neo4jExec(r *Result, spec Spec, _ cluster.CostModel, proj int64) (any, int64, error) {
	r.Profile.Fault = nil
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
		return nil, 0, errNotIngested
	}
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
		return nil, unknownAlgorithm(spec)
	}
	if spec.WarmCache && !spec.Cold {
		// Cold pass to fill the caches, discarded (the paper reports
		// hot-cache numbers in Figure 1).
		if _, err := run(&cluster.ExecutionProfile{}); err != nil {
			return nil, 0, err
		}
	}
	out, err := run(r.Profile)
	return out, 0, err
}
