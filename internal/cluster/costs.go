package cluster

import "math"

// CostModel holds the per-platform constants that translate a measured
// ExecutionProfile into simulated seconds on the modelled hardware.
// The constants were calibrated once against the paper's DAS-4
// environment (Section 3) and the known per-record costs of each
// runtime class (JVM MapReduce vs in-memory BSP vs native C++ vs
// embedded database); they stay fixed across all experiments, so every
// relative result is driven by the measured counts.
type CostModel struct {
	// Name is the platform name the model belongs to.
	Name string

	// JobStartup is the cost of launching one job: scheduling, JVM or
	// container spin-up, plan deployment. This is the dominant
	// per-iteration penalty for Hadoop-style engines.
	JobStartup float64
	// TaskOverhead is the cost per wave of task launches (tasks are
	// launched workers-at-a-time).
	TaskOverhead float64
	// BarrierCost is the cost of one global synchronisation barrier
	// (BSP superstep boundary, MPI barrier).
	BarrierCost float64
	// Fixed is a one-off per-run overhead: client submission,
	// ZooKeeper coordination, MPI initialisation.
	Fixed float64

	// OpsFactor scales Hardware.OpsPerSec to this runtime's effective
	// per-record processing rate (text-parsing JVM framework code
	// reaches a fraction of a percent; native in-memory code a few
	// percent).
	OpsFactor float64
	// DiskFactor and NetFactor derate the raw hardware bandwidths for
	// serialisation and protocol overhead.
	DiskFactor, NetFactor float64
	// SeekSeconds is the cost of one random disk access (Phase.Seeks);
	// platforms that only stream leave it zero.
	SeekSeconds float64

	// MemBase is the runtime's baseline memory per node (JVM heap
	// slack, buffers), added to the algorithm's demand before the OOM
	// check.
	MemBase int64
	// MemPerMsgByte inflates raw message bytes to in-memory footprint
	// (Java object headers and boxing for the JVM platforms).
	MemPerMsgByte float64
	// GraphMemFactor inflates raw graph/data bytes to the runtime's
	// in-memory representation (object-per-edge for Giraph 0.2,
	// deserialised records for the MR engines).
	GraphMemFactor float64
	// GCFactor is the headroom multiplier a garbage-collected runtime
	// needs over its live set to keep making progress.
	GCFactor float64
}

// Platform cost-model presets. See Section 3.1 of the paper for the
// platform descriptions these mirror.

// HadoopCosts: MapReduce on disk-backed HDFS; heavyweight job startup
// repaid on every iteration, slow per-record text processing.
func HadoopCosts() CostModel {
	return CostModel{
		Name: "Hadoop", JobStartup: 28, TaskOverhead: 1.5, BarrierCost: 0,
		Fixed: 8, OpsFactor: 0.015, DiskFactor: 0.6, NetFactor: 0.5,
		// Task JVMs spill to disk, so only a modest fraction of a
		// job's per-node data volume must be resident at once.
		MemBase: 1 << 30, MemPerMsgByte: 4, GraphMemFactor: 1.4, GCFactor: 1.0,
	}
}

// YARNCosts: same execution engine as Hadoop with container-based
// scheduling; slightly cheaper job startup, otherwise unchanged ("it
// has not been altered to support iterative applications").
func YARNCosts() CostModel {
	c := HadoopCosts()
	c.Name = "YARN"
	c.JobStartup = 23
	c.TaskOverhead = 1.2
	// YARN enforces container memory limits strictly (the container is
	// killed on overcommit where classic Hadoop's task JVM could page),
	// which is how YARN dies on Friendster at 20 nodes while Hadoop
	// squeaks through (Section 4.3.2).
	c.GraphMemFactor = 7.2
	return c
}

// StratosphereCosts: Nephele DAG execution with pipelined network
// channels — far cheaper per-iteration launches and no HDFS
// round-trips between operators.
func StratosphereCosts() CostModel {
	return CostModel{
		Name: "Stratosphere", JobStartup: 6, TaskOverhead: 0.5, BarrierCost: 0,
		Fixed: 5, OpsFactor: 0.02, DiskFactor: 0.7, NetFactor: 0.7,
		MemBase: 20 << 30 >> 4, MemPerMsgByte: 3, // workers pre-allocate buffers
		GraphMemFactor: 3, GCFactor: 1.0, // managed memory: spills, never crashes
	}
}

// GiraphCosts: single job, in-memory BSP; per-superstep barriers via
// ZooKeeper, JVM object overhead on messages (the crash cause).
func GiraphCosts() CostModel {
	return CostModel{
		Name: "Giraph", JobStartup: 12, TaskOverhead: 1.0, BarrierCost: 0.4,
		Fixed: 8, OpsFactor: 0.05, DiskFactor: 0.6, NetFactor: 0.6,
		MemBase: 2 << 30, MemPerMsgByte: 6, GraphMemFactor: 14, GCFactor: 1.6,
	}
}

// GraphLabCosts: native C++ GAS engine over MPI; fast per-record rate,
// light barriers, compact memory.
func GraphLabCosts() CostModel {
	return CostModel{
		Name: "GraphLab", JobStartup: 2, TaskOverhead: 0.3, BarrierCost: 0.2,
		Fixed: 6, OpsFactor: 0.12, DiskFactor: 0.8, NetFactor: 0.8,
		MemBase: 512 << 20, MemPerMsgByte: 1.5, GraphMemFactor: 2, GCFactor: 1.1,
	}
}

// Neo4jCosts: embedded single-machine database; no cluster overheads
// at all, object-cache traversal speed, but only one machine.
func Neo4jCosts() CostModel {
	return CostModel{
		Name: "Neo4j", JobStartup: 0.3, TaskOverhead: 0, BarrierCost: 0,
		Fixed: 0.5, OpsFactor: 0.015, DiskFactor: 0.35, NetFactor: 1,
		SeekSeconds: 0.008, MemBase: 1 << 30, MemPerMsgByte: 2,
		GraphMemFactor: 5, GCFactor: 1.0,
	}
}

// Demand is the memory a node needs, in bytes, to hold graphBytes of
// graph or job data and msgBytes of messages:
// GCFactor·(MemBase + GraphMemFactor·graph + MemPerMsgByte·msg). It is
// the one rule behind every memory check. Hadoop and YARN once left
// MemBase outside the GC factor; both have GCFactor 1.0, and
// multiplying by 1.0 is exact, so that form and this one agree bit for
// bit.
func (c CostModel) Demand(graphBytes, msgBytes float64) int64 {
	return int64(c.GCFactor * (float64(c.MemBase) + c.GraphMemFactor*graphBytes + c.MemPerMsgByte*msgBytes))
}

// MsgBudget inverts Demand: the message bytes a node of mem bytes holds
// beside graphBytes of data. It is zero or less when the data alone
// fills the node.
func (c CostModel) MsgBudget(graphBytes float64, mem int64) float64 {
	return (float64(mem)/c.GCFactor - float64(c.MemBase) - c.GraphMemFactor*graphBytes) / c.MemPerMsgByte
}

// PhaseTime is the simulated duration of one profile phase.
type PhaseTime struct {
	Name    string
	Kind    PhaseKind
	Seconds float64
}

// Breakdown is the simulated timing of a run: the paper's job
// execution time T, computation time Tc, and overhead time To = T−Tc
// (Section 2.1, Table 1).
type Breakdown struct {
	// Total is T, the job execution time in seconds.
	Total float64
	// Compute is Tc, time spent making algorithmic progress.
	Compute float64
	// Overhead is To = Total - Compute.
	Overhead float64

	// Detail per overhead class.
	Setup, Read, Shuffle, Write float64

	// PerPhase lists every phase with its simulated duration.
	PerPhase []PhaseTime
}

// Time converts a measured profile into a simulated Breakdown on the
// given hardware.
func (c CostModel) Time(p *ExecutionProfile, hw Hardware) Breakdown {
	var b Breakdown
	b.Setup = c.Fixed
	b.Total = c.Fixed

	workers := float64(hw.Workers())
	nodes := float64(hw.Nodes)
	opsRate := hw.OpsPerSec * c.OpsFactor // per worker

	for _, ph := range p.Phases {
		if ph.Kind == PhaseIngest {
			continue // ingestion is measured separately (Table 6)
		}
		secs := 0.0

		// Launch overheads.
		launch := float64(ph.Jobs)*c.JobStartup +
			math.Ceil(float64(ph.Tasks)/workers)*c.TaskOverhead +
			float64(ph.Barriers)*c.BarrierCost
		secs += launch
		b.Setup += launch

		// Computation: bounded by the busiest worker when skew is
		// reported, otherwise perfectly parallel.
		var compute float64
		if ph.MaxPartOps > 0 {
			compute = float64(ph.MaxPartOps) / opsRate
		} else {
			compute = float64(ph.Ops) / (workers * opsRate)
		}
		secs += compute

		// I/O, spread across the participating nodes' disks and NICs.
		ioNodes := nodes
		if ph.IONodes > 0 {
			ioNodes = float64(ph.IONodes)
		}
		read := float64(ph.DiskRead)/(hw.DiskMBps*1e6*c.DiskFactor*ioNodes) +
			float64(ph.Seeks)*c.SeekSeconds
		write := float64(ph.DiskWrite) / (hw.DiskMBps * 1e6 * c.DiskFactor * ioNodes)
		net := float64(ph.Net) / (hw.NetMBps * 1e6 * c.NetFactor * ioNodes)
		secs += read + write + net

		switch ph.Kind {
		case PhaseCompute:
			b.Compute += compute
			b.Read += read
			b.Write += write
			b.Shuffle += net
		case PhaseRead:
			b.Read += read + net + compute
		case PhaseWrite:
			b.Write += write + net + compute
		case PhaseShuffle:
			b.Shuffle += net + read + write + compute
		default:
			b.Setup += compute + read + write + net
		}

		b.PerPhase = append(b.PerPhase, PhaseTime{Name: ph.Name, Kind: ph.Kind, Seconds: secs})
		b.Total += secs
	}
	b.Overhead = b.Total - b.Compute
	return b
}
