package gas

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
)

func chaosProfile(plan fault.Plan) (*cluster.ExecutionProfile, *fault.Injector, *obs.Session) {
	sess := obs.NewSession(obs.Options{NoSampler: true})
	inj := fault.New(plan, sess.R())
	return &cluster.ExecutionProfile{Obs: sess, Fault: inj}, inj, sess
}

// TestIterationRestartEquivalence: an injected failure mid-run restarts
// the iteration from committed values; the converged labels and every
// measured stat match the fault-free run.
func TestIterationRestartEquivalence(t *testing.T) {
	g := ringGraph(24)
	hw := cluster.DAS4(3, 1)
	base, err := Run(g, hw, minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2, 5, 9} {
		profile, inj, sess := chaosProfile(fault.Plan{
			Seed:  1,
			Rules: []fault.Rule{fault.CrashAt(k)},
		})
		res, err := Run(g, hw, minLabelConfig(), profile)
		sess.Close()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if inj.InjectedOf(fault.Crash) != 1 {
			t.Fatalf("k=%d: injected %d crashes, want 1", k, inj.InjectedOf(fault.Crash))
		}
		if got := sess.R().Counter("task.retries").Get(); got != 1 {
			t.Fatalf("k=%d: task.retries = %d, want 1", k, got)
		}
		if !reflect.DeepEqual(res.Values, base.Values) {
			t.Fatalf("k=%d: values diverged from fault-free run", k)
		}
		if res.Stats != base.Stats {
			t.Fatalf("k=%d: stats diverged: %+v vs %+v", k, res.Stats, base.Stats)
		}
	}
}

// TestGASDefaultPlanEquivalence exercises the full default plan
// (crashes, stragglers, drops) across seeds.
func TestGASDefaultPlanEquivalence(t *testing.T) {
	g := ringGraph(30)
	hw := cluster.DAS4(4, 1)
	base, err := Run(g, hw, minLabelConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		profile, _, sess := chaosProfile(fault.DefaultPlan(seed))
		res, err := Run(g, hw, minLabelConfig(), profile)
		sess.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Values, base.Values) {
			t.Fatalf("seed %d: values diverged under default fault plan", seed)
		}
		if res.Stats != base.Stats {
			t.Fatalf("seed %d: stats diverged", seed)
		}
	}
}

// TestGASBudgetExhausted pins graceful degradation to a typed error.
func TestGASBudgetExhausted(t *testing.T) {
	g := ringGraph(16)
	profile, _, sess := chaosProfile(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{{
			Kind: fault.Crash, Op: "iteration", Step: 1, Task: fault.Any, Attempt: fault.Any, Prob: 1,
		}},
	})
	defer sess.Close()
	_, err := Run(g, cluster.DAS4(2, 1), minLabelConfig(), profile)
	if err == nil {
		t.Fatal("expected budget exhaustion, got nil")
	}
	if !errors.Is(err, fault.ErrBudgetExhausted) {
		t.Fatalf("error not typed as ErrBudgetExhausted: %v", err)
	}
}
