// Package yarn models Hadoop NextGen (YARN, hadoop-2.0.3-alpha in the
// paper): a ResourceManager that hands out containers and a
// per-application ApplicationMaster that runs the actual MapReduce job
// — the paper's key architectural note is that YARN "separates
// functionally resource management and job management" while executing
// unmodified MapReduce jobs. Execution therefore reuses the mapreduce
// engine; what differs is the scheduling layer (the AM's container,
// its allocation cap and its relaunch on failure) and the cheaper
// container startup reflected in the YARN cost model.
package yarn

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// DefaultMaxAllocation is the paper's maximum container request at the
// ResourceManager (20 GB).
const DefaultMaxAllocation = 20 << 30

// ResourceManager owns the cluster's containers.
type ResourceManager struct {
	hw cluster.Hardware

	// Obs, when non-nil, receives an app-lifetime span per submitted
	// application plus container-allocation counters, and is handed to
	// each application's MapReduce engine.
	Obs *obs.Session

	// Fault, when non-nil, injects failures at the scheduling layer —
	// ApplicationMaster launches that die and are relaunched by the RM
	// (up to the attempt budget) — and is handed down to each
	// application's MapReduce engine for task-level injection.
	Fault *fault.Injector

	mu        sync.Mutex
	nextAppID int
	allocated int64 // bytes currently granted
}

// NewResourceManager creates a ResourceManager for the cluster.
func NewResourceManager(hw cluster.Hardware) *ResourceManager {
	return &ResourceManager{hw: hw}
}

// Capacity returns the cluster's total container memory.
func (rm *ResourceManager) Capacity() int64 {
	return int64(rm.hw.Nodes) * rm.hw.MemPerNode
}

// Submit registers an application and launches its ApplicationMaster
// in a container of amMemory bytes.
func (rm *ResourceManager) Submit(name string, amMemory int64) (*ApplicationMaster, error) {
	if amMemory <= 0 {
		amMemory = 1 << 30
	}
	if amMemory > DefaultMaxAllocation {
		return nil, fmt.Errorf("yarn: AM container %d exceeds maximum allocation %d", amMemory, DefaultMaxAllocation)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.allocated+amMemory > rm.Capacity() {
		return nil, fmt.Errorf("yarn: cluster out of container memory")
	}
	rm.allocated += amMemory
	rm.nextAppID++
	id := fmt.Sprintf("application_%04d", rm.nextAppID)
	am := &ApplicationMaster{
		ID: id, Name: name, rm: rm, memory: amMemory,
		engine: mapreduce.New(rm.hw),
	}
	am.engine.Profile.Obs = rm.Obs
	am.engine.Profile.Fault = rm.Fault
	reg := rm.Obs.R()
	// An injected AM death is recovered by the RM relaunching the AM in
	// a fresh container; the job itself has not started yet, so the
	// only cost is the extra launches (with backoff).
	var relaunchUnits int
	if _, err := rm.Fault.Retry(fault.Site{Engine: "yarn", Op: "am-launch", Step: rm.nextAppID, Task: 0}, func(int) {}, func(attempt int) {
		relaunchUnits += fault.BackoffUnits(attempt)
		reg.Counter("task.retries").Add(1)
		reg.Counter("yarn.am_restarts").Add(1)
	}); err != nil {
		rm.allocated -= amMemory
		return nil, err
	}
	if relaunchUnits > 0 {
		am.engine.Profile.AddPhase(cluster.Phase{
			Name: "yarn:am-relaunch", Kind: cluster.PhaseSetup, Tasks: relaunchUnits,
		})
	}
	am.span = rm.Obs.T().Begin("yarn:app", obs.KindJob, int64(rm.nextAppID), obs.SpanRef{})
	reg.Counter("yarn.apps_submitted").Add(1)
	reg.Counter("yarn.containers_requested").Add(1)
	reg.Gauge("yarn.allocated_bytes").Set(rm.allocated)
	return am, nil
}

// ApplicationMaster manages one application's containers and runs its
// MapReduce jobs.
type ApplicationMaster struct {
	ID   string
	Name string

	rm     *ResourceManager
	engine *mapreduce.Engine
	memory int64 // the AM's container
	span   obs.SpanRef

	mu       sync.Mutex
	finished bool
}

// Engine exposes the MapReduce engine executing inside this
// application's containers; the profile it accumulates is the
// application's execution record.
func (am *ApplicationMaster) Engine() *mapreduce.Engine { return am.engine }

// Finish releases the application's containers.
func (am *ApplicationMaster) Finish() {
	am.mu.Lock()
	if am.finished {
		am.mu.Unlock()
		return
	}
	am.finished = true
	mem := am.memory
	am.mu.Unlock()

	am.rm.mu.Lock()
	am.rm.allocated -= mem
	allocated := am.rm.allocated
	am.rm.mu.Unlock()
	am.rm.Obs.R().Gauge("yarn.allocated_bytes").Set(allocated)
	am.rm.Obs.T().End(am.span)
}
