package pregel

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosProfile builds a profile carrying an injector for the given
// plan, plus an observability session so counter assertions work.
func chaosProfile(plan fault.Plan) (*cluster.ExecutionProfile, *fault.Injector, *obs.Session) {
	sess := obs.NewSession(obs.Options{NoSampler: true})
	inj := fault.New(plan, sess.R())
	return &cluster.ExecutionProfile{Obs: sess, Fault: inj}, inj, sess
}

// TestCheckpointRestoreEquivalence is the ISSUE 5 equivalence test:
// kill a worker at superstep k for several k and checkpoint cadences,
// restore, and demand byte-identical results vs the fault-free run.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	g := path(12)
	hw := cluster.DAS4(3, 1)
	base, err := Run(g, hw, bfsProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ckEvery := range []int{0, 1, 2, 3} {
		for _, k := range []int{0, 1, 3, 5, 8} {
			profile, inj, sess := chaosProfile(fault.Plan{
				Seed:            1,
				CheckpointEvery: ckEvery,
				Rules:           []fault.Rule{fault.CrashAt(k)},
			})
			res, err := Run(g, hw, bfsProgram(), profile)
			sess.Close()
			if err != nil {
				t.Fatalf("ckEvery=%d k=%d: %v", ckEvery, k, err)
			}
			if inj.InjectedOf(fault.Crash) != 1 {
				t.Fatalf("ckEvery=%d k=%d: injected %d crashes, want 1", ckEvery, k, inj.InjectedOf(fault.Crash))
			}
			if got := sess.R().Counter("checkpoint.restore").Get(); got != 1 {
				t.Fatalf("ckEvery=%d k=%d: checkpoint.restore = %d, want 1", ckEvery, k, got)
			}
			if !reflect.DeepEqual(res.Values, base.Values) {
				t.Fatalf("ckEvery=%d k=%d: values diverged from fault-free run", ckEvery, k)
			}
			if !reflect.DeepEqual(res.Aggregators, base.Aggregators) {
				t.Fatalf("ckEvery=%d k=%d: aggregators diverged", ckEvery, k)
			}
			if res.Stats != base.Stats {
				t.Fatalf("ckEvery=%d k=%d: stats diverged: %+v vs %+v", ckEvery, k, res.Stats, base.Stats)
			}
		}
	}
}

// TestChaosDefaultPlanEquivalence runs the full default fault plan
// (crashes, drops, delays, stragglers) across seeds and checks the
// answer never changes.
func TestChaosDefaultPlanEquivalence(t *testing.T) {
	g := path(16)
	hw := cluster.DAS4(4, 1)
	base, err := Run(g, hw, bfsProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		profile, inj, sess := chaosProfile(fault.DefaultPlan(seed))
		res, err := Run(g, hw, bfsProgram(), profile)
		sess.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inj.Injected() == 0 {
			t.Fatalf("seed %d: default plan injected nothing", seed)
		}
		if !reflect.DeepEqual(res.Values, base.Values) {
			t.Fatalf("seed %d: values diverged under default fault plan", seed)
		}
		if res.Stats != base.Stats {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, res.Stats, base.Stats)
		}
	}
}

// TestRecoveryOverheadVisible checks the replayed supersteps and the
// restore phase land in the execution profile — the T/EPS penalty the
// chaos report is built from.
func TestRecoveryOverheadVisible(t *testing.T) {
	g := path(10)
	hw := cluster.DAS4(2, 1)
	baseProfile := &cluster.ExecutionProfile{}
	if _, err := Run(g, hw, bfsProgram(), baseProfile); err != nil {
		t.Fatal(err)
	}
	profile, _, sess := chaosProfile(fault.Plan{Seed: 3, CheckpointEvery: 2, Rules: []fault.Rule{fault.CrashAt(5)}})
	if _, err := Run(g, hw, bfsProgram(), profile); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	var restores int
	for _, ph := range profile.Phases {
		if ph.Kind == cluster.PhaseRead && strings.HasPrefix(ph.Name, "restore-") {
			restores++
		}
	}
	if restores == 0 {
		t.Fatal("no restore phase recorded")
	}
	if len(profile.Phases) <= len(baseProfile.Phases) {
		t.Fatalf("chaos profile has %d phases, fault-free %d: replay overhead invisible",
			len(profile.Phases), len(baseProfile.Phases))
	}
}

// TestBudgetExhaustedTypedError pins the graceful-degradation contract:
// a crash that persists through every attempt yields
// fault.ErrBudgetExhausted, no panic, no hang.
func TestBudgetExhaustedTypedError(t *testing.T) {
	g := path(8)
	profile, _, sess := chaosProfile(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{{
			Kind: fault.Crash, Step: 2, Task: fault.Any, Attempt: fault.Any, Prob: 1,
		}},
	})
	defer sess.Close()
	_, err := Run(g, cluster.DAS4(2, 1), bfsProgram(), profile)
	if err == nil {
		t.Fatal("expected budget exhaustion, got nil error")
	}
	if !errors.Is(err, fault.ErrBudgetExhausted) {
		t.Fatalf("error not typed as ErrBudgetExhausted: %v", err)
	}
}
