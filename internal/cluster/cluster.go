// Package cluster models the execution environment of the paper: the
// DAS-4 cluster (Section 3.2) and the translation from measured
// execution profiles to job execution times.
//
// The platform engines in this repository genuinely execute every
// algorithm — real partitions, real messages, real record counts; what
// a laptop cannot reproduce is the paper's wall-clock environment (20
// to 50 machines, JVM startup, HDFS materialisation, a 1 GbE network).
// The cost model in this package bridges that gap: engines report what
// they *did* (operations, bytes moved, barriers crossed, jobs
// launched) in an ExecutionProfile, and the model converts those
// counts into simulated seconds using per-platform constants
// calibrated once against the hardware the paper describes. All
// relative results — who wins, by what factor, where the crossovers
// fall — emerge from the measured counts, not from the constants.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Hardware describes a simulated deployment. The defaults mirror
// DAS-4: Intel Xeon E5620 (dual quad-core), 24 GB memory, 1 GbE
// Ethernet for data, enterprise SATA disks.
type Hardware struct {
	// Nodes is the number of computing machines (the master is extra,
	// as in the paper's setup).
	Nodes int
	// CoresPerNode is the number of cores used for computation per
	// machine (the paper varies this 1..7 in the vertical-scalability
	// experiments, keeping one core for the OS and services).
	CoresPerNode int
	// MemPerNode is usable memory per machine in bytes.
	MemPerNode int64
	// DiskMBps is per-node sequential disk bandwidth in MB/s.
	DiskMBps float64
	// NetMBps is per-node network bandwidth in MB/s (1 GbE ≈ 110 MB/s
	// effective).
	NetMBps float64
	// OpsPerSec is the per-core baseline rate of record operations for
	// compiled, cache-friendly code; platform cost models scale it by
	// their runtime efficiency factor.
	OpsPerSec float64
}

// DAS4 returns the paper's cluster configuration with the given number
// of computing nodes and cores per node.
func DAS4(nodes, coresPerNode int) Hardware {
	return Hardware{
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		MemPerNode:   20 << 30, // 20 GB usable of the 24 GB installed
		DiskMBps:     100,
		NetMBps:      110,
		OpsPerSec:    20e6,
	}
}

// SingleNode returns the single-machine configuration used for Neo4j
// (one DAS-4 node, one SATA disk).
func SingleNode() Hardware {
	hw := DAS4(1, 8)
	return hw
}

// Workers returns the total number of parallel computation slots.
func (hw Hardware) Workers() int { return hw.Nodes * hw.CoresPerNode }

// BusiestWorker is a phase's MaxPartOps from the busiest machine's ops
// and the total: the machine's threads share its ops over its cores,
// but no worker does less than the mean over all workers. At one core
// per node the floor never binds, since a machine maximum is at least
// the machine mean.
func (hw Hardware) BusiestWorker(maxNode, total int64) int64 {
	return max(maxNode/int64(hw.CoresPerNode), total/int64(hw.Workers()))
}

// Validate checks the configuration is usable.
func (hw Hardware) Validate() error {
	if hw.Nodes < 1 || hw.CoresPerNode < 1 {
		return fmt.Errorf("cluster: need at least one node and core, got %d×%d", hw.Nodes, hw.CoresPerNode)
	}
	if hw.MemPerNode <= 0 || hw.DiskMBps <= 0 || hw.NetMBps <= 0 || hw.OpsPerSec <= 0 {
		return errors.New("cluster: hardware rates must be positive")
	}
	return nil
}

// IngestSeconds models loading a local file of the given size into the
// cluster's DFS (Section 3.1: single replica per block, no
// compression): the transfer streams from the submitting node over the
// network and onto the cluster's disks. On the paper's hardware this
// comes to roughly 1 second per 100 MB, and it is linear in the graph
// size (Table 6 key finding). Ingestion is out-of-band: it is not part
// of any job's execution time.
func (hw Hardware) IngestSeconds(size int64) float64 {
	// The single source node's effective streaming rate is the
	// bottleneck: min(local disk read, NIC).
	rate := hw.DiskMBps
	if hw.NetMBps < rate {
		rate = hw.NetMBps
	}
	return float64(size) / (rate * 1e6)
}

// PhaseKind classifies a phase for the computation-vs-overhead
// breakdown of Section 4.4 (computation time Tc is "the time used for
// making progress with the graph algorithms"; everything else —
// setup, read, write, communication — is overhead time To).
type PhaseKind int

const (
	// PhaseSetup is job/task scheduling, JVM or container startup.
	PhaseSetup PhaseKind = iota
	// PhaseRead is input loading (DFS or local disk).
	PhaseRead
	// PhaseCompute is actual algorithm progress (counts toward Tc).
	PhaseCompute
	// PhaseShuffle is data movement between tasks or supersteps.
	PhaseShuffle
	// PhaseWrite is output materialisation.
	PhaseWrite
	// PhaseIngest is out-of-band data ingestion (Table 6); it is not
	// part of job execution time.
	PhaseIngest
)

var phaseKindNames = [...]string{"setup", "read", "compute", "shuffle", "write", "ingest"}

func (k PhaseKind) String() string {
	if int(k) < len(phaseKindNames) {
		return phaseKindNames[k]
	}
	return fmt.Sprintf("PhaseKind(%d)", int(k))
}

// Phase records what one stage of an execution actually did.
type Phase struct {
	Name string
	Kind PhaseKind

	// Ops is the total number of record operations performed (vertex
	// updates, records parsed, messages applied...).
	Ops int64
	// MaxPartOps is the largest per-worker share of Ops; the ratio to
	// the mean captures load skew. Zero means perfectly balanced.
	MaxPartOps int64

	// DiskRead and DiskWrite are bytes moved to/from disk.
	DiskRead, DiskWrite int64
	// Seeks is the number of random-access disk operations (record
	// page-ins in the graph database); sequential streaming leaves it
	// zero.
	Seeks int64
	// Net is bytes crossing the network.
	Net int64

	// IONodes is the number of nodes that participate in this phase's
	// disk and network transfers; zero means all nodes. GraphLab's
	// single-file loader (Section 4.3.1: "constrained by the graph
	// loading phase using one single file") sets this to 1.
	IONodes int

	// Barriers is the number of global synchronisation barriers.
	Barriers int
	// Jobs is the number of job launches (each paying the platform's
	// job startup cost — the dominant Hadoop overhead).
	Jobs int
	// Tasks is the number of task launches within those jobs.
	Tasks int
}

// ExecutionProfile is the measured record of one platform run.
type ExecutionProfile struct {
	Platform  string
	Dataset   string
	Algorithm string

	Phases []Phase

	// PeakMemPerNode is the maximum simultaneous memory demand on any
	// single computing node (graph partition + message queues +
	// runtime base).
	PeakMemPerNode int64

	// Iterations is the number of algorithm iterations executed.
	Iterations int

	// Obs, when non-nil, is the observability session the engines
	// report real spans and counters into (see internal/obs). The
	// profile already travels from the platform layer into every
	// engine, so it doubles as the carrier for live instrumentation;
	// a nil Obs keeps every tracing call a single branch.
	Obs *obs.Session

	// Fault, when non-nil, is the active fault injector (see
	// internal/fault): the profile carries it into every engine the
	// same way it carries Obs, so chaos runs need no per-engine
	// plumbing. A nil Fault keeps every injection check a single
	// branch.
	Fault *fault.Injector

	// Part, when non-nil, is the placement the engines execute under
	// (see internal/partition): each worker owns one shard, and only
	// cross-node traffic pays network cost. It rides the profile into
	// every engine exactly like Obs and Fault; a nil Part selects each
	// engine's historical default layout.
	Part *partition.Partitioning
}

// Session returns the profile's observability session; safe on a nil
// profile (engines accept profile == nil).
func (p *ExecutionProfile) Session() *obs.Session {
	if p == nil {
		return nil
	}
	return p.Obs
}

// Injector returns the profile's fault injector; safe on a nil
// profile. A nil result disables injection (every fault.Injector
// method is a no-op on nil).
func (p *ExecutionProfile) Injector() *fault.Injector {
	if p == nil {
		return nil
	}
	return p.Fault
}

// Partitioning returns the profile's placement; safe on a nil profile.
// A nil result means the engine should use its default layout.
func (p *ExecutionProfile) Partitioning() *partition.Partitioning {
	if p == nil {
		return nil
	}
	return p.Part
}

// AddPhase appends a phase.
func (p *ExecutionProfile) AddPhase(ph Phase) { p.Phases = append(p.Phases, ph) }

// TotalOps sums operations across phases.
func (p *ExecutionProfile) TotalOps() int64 {
	var n int64
	for _, ph := range p.Phases {
		n += ph.Ops
	}
	return n
}

// TotalNet sums network bytes across phases.
func (p *ExecutionProfile) TotalNet() int64 {
	var n int64
	for _, ph := range p.Phases {
		n += ph.Net
	}
	return n
}

// ErrOutOfMemory is returned when a run exceeds per-node memory — the
// paper's "crash" outcome (e.g. Giraph on STATS/WikiTalk, or most
// algorithms on Friendster).
var ErrOutOfMemory = errors.New("cluster: out of memory on computing node")

// CheckMemory validates the profile's peak memory demand against the
// hardware, returning ErrOutOfMemory when a node would have crashed.
func CheckMemory(peakPerNode int64, hw Hardware) error {
	if peakPerNode > hw.MemPerNode {
		return fmt.Errorf("%w: need %d MB, node has %d MB",
			ErrOutOfMemory, peakPerNode>>20, hw.MemPerNode>>20)
	}
	return nil
}
