package bench

import (
	"fmt"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
)

// ChaosReport is the outcome of one chaos experiment: a fault-free
// baseline run followed by a run under a seeded fault plan, with the
// recovery overhead expressed as the paper's T/EPS penalty.
type ChaosReport struct {
	Platform  string
	Algorithm string
	Dataset   string
	Seed      int64

	// Match is the determinism contract: the fault-injected run
	// produced exactly the fault-free algorithm output, and that output
	// passes the dataset's oracle.
	Match bool
	// BaselineSeconds / FaultSeconds are the projected execution times
	// T of the two runs; PenaltyPct is the relative recovery overhead.
	BaselineSeconds float64
	FaultSeconds    float64
	PenaltyPct      float64
	// BaselineEPS / FaultEPS are the corresponding throughputs.
	BaselineEPS float64
	FaultEPS    float64

	// Injected counts faults fired by the injector; Retries and
	// Restores are the engine-side recovery counters
	// (task.retries + yarn.am_restarts, checkpoint.restore).
	Injected int64
	Retries  int64
	Restores int64

	// Err is set when either run failed outright (e.g. the retry
	// budget was exhausted and the engine degraded to a clean abort) or
	// the fault-injected output fails the oracle.
	Err error
}

// String renders the report as a short human-readable block.
func (c ChaosReport) String() string {
	status := "MATCH"
	if !c.Match {
		status = "MISMATCH"
	}
	if p, err := platform.ByName(c.Platform); err == nil && c.FaultSeconds > p.Timeout() {
		status += fmt.Sprintf(" (past the %.0f h limit: projected %.1f h)",
			p.Timeout()/3600, c.FaultSeconds/3600)
	}
	if c.Err != nil {
		status = "ERROR: " + c.Err.Error()
	}
	return fmt.Sprintf(
		"== chaos %s %s/%s seed=%d ==\n"+
			"result:    %s\n"+
			"faults:    injected=%d retries=%d restores=%d\n"+
			"time:      baseline=%.1f s  chaos=%.1f s  penalty=%.1f%%\n"+
			"eps:       baseline=%s  chaos=%s\n",
		c.Platform, c.Algorithm, c.Dataset, c.Seed, status,
		c.Injected, c.Retries, c.Restores,
		c.BaselineSeconds, c.FaultSeconds, c.PenaltyPct,
		fmtFloat(c.BaselineEPS), fmtFloat(c.FaultEPS))
}

// Chaos runs the experiment twice — fault-free, then under plan — and
// reports whether recovery preserved the algorithm output along with
// the T/EPS penalty the recovery cost. The determinism contract is
// that Match is true for every plan the engines can absorb within the
// retry budget; an exhausted budget surfaces as Err, and so does an
// output the oracle rejects, even one equal to the fault-free output.
func (h *Harness) Chaos(platformName, alg, dataset string, hw cluster.Hardware, plan fault.Plan) ChaosReport {
	rep := ChaosReport{
		Platform: platformName, Algorithm: alg, Dataset: dataset,
		Seed: plan.Seed,
	}

	// Both runs bypass the result memo: chaos runs must never be served
	// from, or leak into, the fault-free cache.
	fr := FreshRun{
		Platform: platformName, Algorithm: alg, Dataset: dataset, HW: hw,
		Partitioner: h.cfg.Partitioner, Shards: h.cfg.Shards,
	}
	base := h.mustExecute(fr, nil, nil)
	if base.Status != platform.OK {
		rep.Err = fmt.Errorf("baseline run failed (%v): %v", base.Status, base.Err)
		return rep
	}
	rep.BaselineSeconds = base.Seconds
	rep.BaselineEPS = base.EPS()

	sess := obs.NewSession(obs.Options{NoSampler: true})
	defer sess.Close()
	inj := fault.New(plan, sess.R())
	res := h.mustExecute(fr, sess, inj)

	rep.Injected = inj.Injected()
	snap := sess.R().Snapshot()
	rep.Retries = snap.Counters["task.retries"] + snap.Counters["yarn.am_restarts"]
	rep.Restores = snap.Counters["checkpoint.restore"]

	// A run past the platform's time limit still finished, recovery
	// included: its output is checked and its penalty reported like any
	// other, and String says it crossed the limit. A crash, or a retry
	// budget exhausted, is an error.
	if res.Status != platform.OK && res.Status != platform.Timeout {
		rep.Err = fmt.Errorf("chaos run failed (%v): %v", res.Status, res.Err)
		return rep
	}
	rep.FaultSeconds = res.Seconds
	rep.FaultEPS = res.EPS()
	rep.PenaltyPct = 100 * fault.Overhead(base.Seconds, res.Seconds)
	if err := h.Oracle(dataset).Check(res.Output); err != nil {
		rep.Err = fmt.Errorf("chaos output fails the oracle: %w", err)
		return rep
	}
	rep.Match = reflect.DeepEqual(res.Output, base.Output)
	return rep
}
