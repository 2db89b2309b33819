// Package boundary implements the paper's stated future work: "an
// empirically validated performance-boundary model for predicting the
// worst performance of these platforms" (Section 7). Given a dataset's
// static characteristics and a platform's cost model — but without
// executing anything — PredictFor returns an upper bound on the job
// execution time and a prediction of whether the run is feasible at
// all (the crash matrix).
//
// The model deliberately over-approximates: it assumes every vertex is
// active in every iteration (no dynamic-computation savings), full
// per-iteration materialisation for the job-per-iteration platforms,
// and degree-skew-bounded load imbalance. The boundary tests validate
// that measured runs never exceed the bound.
package boundary

import (
	"strings"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/platform"
)

// Estimate is a worst-case prediction.
type Estimate struct {
	// Seconds is the predicted upper bound on the projected job
	// execution time.
	Seconds float64
	// Crash predicts an out-of-memory failure.
	Crash bool
	// Timeout predicts the run exceeding its termination budget.
	Timeout bool
	// Iterations is the iteration bound used.
	Iterations int
	// MsgBytes is the bounded per-iteration message volume.
	MsgBytes int64
}

// Inputs are the static dataset characteristics the model consumes —
// everything here is known before any run (Table 2 plus the degree
// distribution).
type Inputs struct {
	V, E      int64
	AdjSize   int64 // directed arc count (2E for undirected)
	MaxDegree int64
	SumDeg    int64 // sum over vertices of total degree
	SumDeg2   int64 // sum over vertices of degree^2
	SumDegOut int64 // sum over vertices of degree * out-degree
	// MaxStatsSend is the largest single vertex's STATS send volume:
	// max over v of deg(v) * (5*outdeg(v) + 20).
	MaxStatsSend int64
	DiskBytes    int64 // on-DFS dataset size
	// Projection scales data-dependent quantities to paper scale.
	Projection int64
}

// MeasureInputs extracts Inputs from a generated graph (in a real
// deployment these come from dataset metadata).
func MeasureInputs(g *graph.Graph, prof datagen.Profile, extraScale int) Inputs {
	_, proj := prof.Projection(extraScale)
	in := Inputs{
		V:          int64(g.NumVertices()),
		E:          g.NumEdges(),
		AdjSize:    g.AdjSize(),
		DiskBytes:  graph.TextSize(g),
		Projection: proj,
	}
	for v := graph.VertexID(0); v < graph.VertexID(g.NumVertices()); v++ {
		d := int64(g.Degree(v))
		if d > in.MaxDegree {
			in.MaxDegree = d
		}
		in.SumDeg += d
		in.SumDeg2 += d * d
		in.SumDegOut += d * int64(g.OutDegree(v))
		if send := d * (5*int64(g.OutDegree(v)) + 20); send > in.MaxStatsSend {
			in.MaxStatsSend = send
		}
	}
	return in
}

// iterationBound returns a conservative iteration count per algorithm.
// Traversal depth is not knowable without running; the model uses the
// documented dataset depth class with headroom, and the fixed caps the
// paper sets for CD and EVO.
func iterationBound(alg string, prof datagen.Profile) int {
	switch alg {
	case platform.STATS:
		return 1
	case platform.BFS:
		return prof.PaperBFSIterations + prof.PaperBFSIterations/2 + 2
	case platform.CONN:
		// Label propagation needs at most the graph's diameter class.
		return 2*prof.PaperBFSIterations + 2
	case platform.CD:
		return 5
	case platform.EVO:
		return 6
	}
	return 1
}

// msgBound bounds the per-iteration message bytes.
func msgBound(platformName, alg string, in Inputs) int64 {
	const labelBytes = 30 // message + envelope
	switch alg {
	case platform.STATS:
		// Every vertex ships its out-list to its whole neighbourhood:
		// sum over v of deg(v) * (5*outdeg(v) + framing).
		return 5*in.SumDegOut + 20*in.SumDeg
	case platform.EVO:
		// A small batch of burn edges per iteration (with generous
		// headroom for deep burns).
		return in.V/100*64 + 4096
	case platform.CD:
		b := 2 * in.AdjSize * labelBytes
		if strings.HasPrefix(platformName, "GraphLab") {
			// GraphLab also synchronises the per-vertex vote
			// accumulators to the mirrors (14 bytes per vote, at most
			// one replica per neighbour).
			b += 14 * in.SumDeg2
		}
		return b
	default:
		// Every edge carries a message both ways, worst case.
		return 2 * in.AdjSize * labelBytes
	}
}

// opsBound bounds the per-iteration record operations.
func opsBound(platformName, alg string, in Inputs) int64 {
	base := in.V + 2*in.AdjSize
	switch alg {
	case platform.STATS:
		// Quadratic intersections dominate.
		return base + 4*in.SumDeg2
	case platform.CD:
		if platformName == "Neo4j" {
			// The embedded database pays ~60 record operations per vote
			// (transactional property reads, chooser updates).
			return base + 60*in.SumDeg
		}
	}
	return base
}

// PredictFor returns the worst-case estimate for one run; the dataset
// profile supplies the traversal-depth class.
func PredictFor(platformName, alg string, prof datagen.Profile, in Inputs, hw cluster.Hardware) (Estimate, error) {
	p, err := platform.ByName(platformName)
	if err != nil {
		return Estimate{}, err
	}
	return predict(p.Costs(), platform.TimeoutOf(p), platformName, alg, in, hw, iterationBound(alg, prof)), nil
}

func predict(cm cluster.CostModel, timeout float64, platformName, alg string, in Inputs, hw cluster.Hardware, iters int) Estimate {
	est := Estimate{Iterations: iters, MsgBytes: msgBound(platformName, alg, in)}
	if platformName == "Neo4j" {
		// Embedded traversals are single-threaded.
		hw.Nodes, hw.CoresPerNode = 1, 1
	}

	// Build the worst-case profile and price it with the platform's
	// own cost model.
	profile := &cluster.ExecutionProfile{}
	perIterOps := opsBound(platformName, alg, in)
	skew := int64(1)
	if in.V > 0 {
		// The busiest worker holds the hottest vertex plus its fair
		// share.
		avg := 2 * in.AdjSize / max(1, in.V)
		if avg > 0 {
			skew = 1 + in.MaxDegree/max(1, avg)/max(1, int64(hw.Workers()))
		}
	}
	maxPart := perIterOps / int64(hw.Workers()) * skew
	if maxPart > perIterOps {
		maxPart = perIterOps
	}

	jobsPerIter, materialise := 0, false
	barriers := 0
	switch platformName {
	case "Hadoop", "YARN":
		jobsPerIter, materialise = 1, true
		if alg == platform.EVO {
			jobsPerIter = 2
		}
	case "Stratosphere":
		jobsPerIter = 1
	default:
		barriers = 1
	}

	profile.AddPhase(cluster.Phase{
		Name: "setup", Kind: cluster.PhaseSetup, Jobs: 1, Tasks: hw.Workers(),
	})
	// Worst-case loading: a single reader that also ships every byte
	// to its partition owner (GraphLab's single-file loader is the
	// observed worst case among the platforms).
	profile.AddPhase(cluster.Phase{
		Name: "read", Kind: cluster.PhaseRead,
		DiskRead: in.DiskBytes, Net: in.DiskBytes, IONodes: 1,
		Ops: in.V + in.AdjSize, MaxPartOps: in.V + in.AdjSize,
	})
	for i := 0; i < iters; i++ {
		ph := cluster.Phase{
			Name: "iter", Kind: cluster.PhaseCompute,
			Ops: perIterOps, MaxPartOps: maxPart,
			Net: est.MsgBytes, Barriers: barriers,
		}
		if jobsPerIter > 0 {
			ph.Jobs = jobsPerIter
			ph.Tasks = 2 * hw.Workers()
		}
		if materialise {
			ph.DiskRead = in.DiskBytes
			ph.DiskWrite = in.DiskBytes
		}
		profile.AddPhase(ph)
	}
	profile.AddPhase(cluster.Phase{
		Name: "write", Kind: cluster.PhaseWrite, DiskWrite: in.DiskBytes,
	})

	b := cm.Time(profile, hw)
	dataTime := b.Total - b.Setup
	// A 1.5x engineering margin absorbs second-order costs the closed
	// form cannot see (accumulator shipping, combiner-less rounds,
	// replication-factor variance).
	est.Seconds = 1.5 * (b.Setup + dataTime*float64(in.Projection))

	// Feasibility: per-node message/graph demand at paper scale. The
	// busiest node holds its uniform share plus the hottest single
	// vertex's sends (degree skew).
	hotVertex := in.MaxDegree * 30
	if alg == platform.STATS {
		hotVertex = in.MaxStatsSend
	}
	perNodeMsg := (est.MsgBytes/int64(hw.Nodes) + hotVertex) * in.Projection
	perNodeGraph := in.AdjSize * 8 / int64(hw.Nodes) * in.Projection
	demand := int64(cm.GCFactor * (float64(cm.MemBase) +
		cm.GraphMemFactor*float64(perNodeGraph) +
		cm.MemPerMsgByte*float64(perNodeMsg)))
	if platformName == "Stratosphere" || platformName == "Neo4j" {
		// These platforms degrade (spill / thrash) instead of crashing.
		demand = 0
	}
	est.Crash = demand > hw.MemPerNode

	est.Timeout = !est.Crash && est.Seconds > timeout
	return est
}
