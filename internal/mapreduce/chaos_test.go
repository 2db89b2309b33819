package mapreduce

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
)

func chaosEngine(nodes int, plan fault.Plan) (*Engine, *fault.Injector, *obs.Session) {
	e := New(cluster.DAS4(nodes, 1))
	sess := obs.NewSession(obs.Options{NoSampler: true})
	inj := fault.New(plan, sess.R())
	e.Profile.Obs = sess
	e.Profile.Fault = inj
	return e, inj, sess
}

// countJob emits one record and one counter bump per input record, so
// both outputs and counters expose non-idempotent re-execution.
func countJob() JobConfig[intVal] {
	return JobConfig[intVal]{
		Name: "count",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
			out.Incr("mapped", 1)
			out.Emit(k%5, v)
		}),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			var s int64
			for _, v := range vals {
				s += int64(v)
			}
			out.Incr("reduced", 1)
			out.Emit(k, intVal(s))
		}),
	}
}

// TestRetryIdempotence is the ISSUE 5 property test: across random
// seeds, a job whose task attempts fail and retry must produce the
// same output *and the same counters* as the fault-free run — failed
// attempts are discarded wholesale.
func TestRetryIdempotence(t *testing.T) {
	input := makeInput(200)
	base := New(cluster.DAS4(4, 1))
	wantOut, wantStats, err := Run(base, countJob(), input, input.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		plan := fault.Plan{
			Seed: rng.Int63(),
			Rules: []fault.Rule{
				{Kind: fault.TaskFail, Step: fault.Any, Task: fault.Any, Attempt: 0, Prob: 0.5},
				{Kind: fault.OOM, Step: fault.Any, Task: fault.Any, Attempt: 0, Prob: 0.2},
				{Kind: fault.Straggler, Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 0.2},
				{Kind: fault.MsgDrop, Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 0.3},
			},
		}
		e, inj, sess := chaosEngine(4, plan)
		out, stats, err := Run(e, countJob(), input, input.Bytes())
		sess.Close()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("trial %d (seed %d): output diverged under retries", trial, plan.Seed)
		}
		for _, name := range []string{"mapped", "reduced"} {
			if got, want := stats.Counters.Get(name), wantStats.Counters.Get(name); got != want {
				t.Fatalf("trial %d: counter %q = %d, want %d (retries double-counted?)", trial, name, got, want)
			}
		}
		if inj.Injected() > 0 && stats.TaskRetries == 0 && stats.SpeculativeTasks == 0 &&
			sess.R().Counter("shuffle.refetch").Get() == 0 {
			t.Fatalf("trial %d: %d faults injected but no recovery recorded", trial, inj.Injected())
		}
	}
}

// TestTaskRetryRecoveryVisible pins the observable side: a guaranteed
// first-attempt failure of one map task yields one task retry and a
// recovery phase in the profile, while the output still matches.
func TestTaskRetryRecoveryVisible(t *testing.T) {
	input := makeInput(100)
	base := New(cluster.DAS4(3, 1))
	wantOut, _, err := Run(base, countJob(), input, input.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	e, _, sess := chaosEngine(3, fault.Plan{
		Seed: 7,
		Rules: []fault.Rule{
			{Kind: fault.TaskFail, Op: "map", Step: 0, Task: 0, Attempt: 0, Prob: 1},
		},
	})
	defer sess.Close()
	out, stats, err := Run(e, countJob(), input, input.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", stats.TaskRetries)
	}
	if got := sess.R().Counter("task.retries").Get(); got != 1 {
		t.Fatalf("task.retries counter = %d, want 1", got)
	}
	if !reflect.DeepEqual(out, wantOut) {
		t.Fatal("output diverged after a retried task")
	}
	var recovery, relaunch bool
	for _, ph := range e.Profile.Phases {
		switch ph.Name {
		case "count:recovery":
			recovery = ph.Ops > 0
		case "count:task-relaunch":
			relaunch = ph.Tasks > 0
		}
	}
	if !recovery || !relaunch {
		t.Fatalf("recovery phases missing from profile (recovery=%v relaunch=%v)", recovery, relaunch)
	}
}

// TestMapReduceBudgetExhausted pins graceful degradation: a task that
// fails every attempt surfaces fault.ErrBudgetExhausted, and the
// engine neither panics nor hangs.
func TestMapReduceBudgetExhausted(t *testing.T) {
	input := makeInput(60)
	for _, op := range []string{"map", "reduce"} {
		e, _, sess := chaosEngine(3, fault.Plan{
			Seed: 1,
			Rules: []fault.Rule{
				{Kind: fault.TaskFail, Op: op, Step: fault.Any, Task: 1, Attempt: fault.Any, Prob: 1},
			},
		})
		_, _, err := Run(e, countJob(), input, input.Bytes())
		sess.Close()
		if err == nil {
			t.Fatalf("%s: expected budget exhaustion, got nil", op)
		}
		if !errors.Is(err, fault.ErrBudgetExhausted) {
			t.Fatalf("%s: error not typed as ErrBudgetExhausted: %v", op, err)
		}
	}
}
