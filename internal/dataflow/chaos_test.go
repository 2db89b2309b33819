package dataflow

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
)

func chaosEngine(plan fault.Plan) (*Engine, *fault.Injector, *obs.Session) {
	e := New(hw())
	sess := obs.NewSession(obs.Options{NoSampler: true})
	inj := fault.New(plan, sess.R())
	e.Profile.Obs = sess
	e.Profile.Fault = inj
	return e, inj, sess
}

func sumPlan() *Plan[i64] {
	p := NewPlan[i64]("chaos-sum")
	src := p.Source("in", nums(120), 1200)
	m := p.Map("mod", src, func(in partition.Record[i64], out *Collector[i64]) {
		out.Collect(in.Key%7, in.Value)
	}, None)
	r := p.Reduce("sum", m, func(key int64, in []partition.Record[i64], out *Collector[i64]) {
		var s int64
		for _, rec := range in {
			s += int64(rec.Value)
		}
		out.Collect(key, i64(s))
	}, SameKey)
	p.Sink(r, true)
	return p
}

// TestOperatorRestartEquivalence: a guaranteed failure on the first
// attempt of each of the two operators restarts it from its channel
// inputs and the plan output matches the fault-free run, with the
// retries observable.
func TestOperatorRestartEquivalence(t *testing.T) {
	base, err := Execute(New(hw()), sumPlan())
	if err != nil {
		t.Fatal(err)
	}
	e, inj, sess := chaosEngine(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{
			{Kind: fault.TaskFail, Engine: "dataflow", Op: "mod", Step: fault.Any, Task: fault.Any, Attempt: 0, Prob: 1},
			{Kind: fault.TaskFail, Engine: "dataflow", Op: "sum", Step: fault.Any, Task: fault.Any, Attempt: 0, Prob: 1},
			{Kind: fault.Straggler, Engine: "dataflow", Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 0.5},
		},
	})
	defer sess.Close()
	outs, err := Execute(e, sumPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, base) {
		t.Fatal("plan output diverged under operator restarts")
	}
	if inj.InjectedOf(fault.TaskFail) != 2 {
		t.Fatalf("injected %d task failures, want 2", inj.InjectedOf(fault.TaskFail))
	}
	if got := sess.R().Counter("task.retries").Get(); got != 2 {
		t.Fatalf("task.retries = %d, want 2", got)
	}
	var recovery, restart bool
	for _, ph := range e.Profile.Phases {
		if ph.Kind == cluster.PhaseCompute && ph.Ops > 0 &&
			len(ph.Name) > 9 && ph.Name[len(ph.Name)-9:] == ":recovery" {
			recovery = true
		}
		if ph.Kind == cluster.PhaseSetup && ph.Tasks > 0 &&
			len(ph.Name) > 8 && ph.Name[len(ph.Name)-8:] == ":restart" {
			restart = true
		}
	}
	if !recovery || !restart {
		t.Fatalf("recovery phases missing (recovery=%v restart=%v)", recovery, restart)
	}
}

// TestShuffleDropRetransmits: a dropped network channel is retransmitted
// — the data still arrives, the overhead is recorded.
func TestShuffleDropRetransmits(t *testing.T) {
	base, err := Execute(New(hw()), sumPlan())
	if err != nil {
		t.Fatal(err)
	}
	e, _, sess := chaosEngine(fault.Plan{
		Seed: 2,
		Rules: []fault.Rule{
			{Kind: fault.MsgDrop, Engine: "dataflow", Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 1},
		},
	})
	defer sess.Close()
	outs, err := Execute(e, sumPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, base) {
		t.Fatal("output diverged after a dropped shuffle")
	}
	if got := sess.R().Counter("shuffle.refetch").Get(); got == 0 {
		t.Fatal("shuffle.refetch = 0, drop not retransmitted")
	}
}

// TestDataflowBudgetExhausted pins the graceful abort: a persistently
// failing operator surfaces fault.ErrBudgetExhausted.
func TestDataflowBudgetExhausted(t *testing.T) {
	e, _, sess := chaosEngine(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{
			{Kind: fault.TaskFail, Op: "sum", Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 1},
		},
	})
	defer sess.Close()
	_, err := Execute(e, sumPlan())
	if err == nil {
		t.Fatal("expected budget exhaustion, got nil")
	}
	if !errors.Is(err, fault.ErrBudgetExhausted) {
		t.Fatalf("error not typed as ErrBudgetExhausted: %v", err)
	}
}
