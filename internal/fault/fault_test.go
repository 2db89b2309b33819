package fault

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
)

func TestDecisionDeterminism(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{
		{Kind: Crash, Step: Any, Task: Any, Attempt: Any, Prob: 0.3},
	}}
	// Two injectors over the same plan must agree on every site.
	a := New(plan, nil)
	b := New(plan, nil)
	var fired int
	for step := 0; step < 50; step++ {
		for task := 0; task < 10; task++ {
			s := Site{Engine: "pregel", Op: "superstep", Step: step, Task: task}
			_, af := a.FailAt(s)
			_, bf := b.FailAt(s)
			if af != bf {
				t.Fatalf("site %+v: injector a=%v b=%v", s, af, bf)
			}
			if af {
				fired++
			}
		}
	}
	if fired == 0 || fired == 500 {
		t.Fatalf("Prob 0.3 fired %d/500 times; hash looks degenerate", fired)
	}
	// Roughly 30%: allow a wide band, the point is non-degeneracy.
	if fired < 75 || fired > 250 {
		t.Fatalf("Prob 0.3 fired %d/500 times; outside plausible band", fired)
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	mk := func(seed int64) map[int]bool {
		in := New(Plan{Seed: seed, Rules: []Rule{
			{Kind: Crash, Step: Any, Task: Any, Attempt: Any, Prob: 0.5},
		}}, nil)
		out := map[int]bool{}
		for step := 0; step < 64; step++ {
			_, f := in.FailAt(Site{Engine: "gas", Op: "iteration", Step: step, Task: Any})
			out[step] = f
		}
		return out
	}
	a, b := mk(1), mk(2)
	same := 0
	for k, v := range a {
		if b[k] == v {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 produced identical decisions at every site")
	}
}

func TestRuleMatching(t *testing.T) {
	in := New(Plan{Seed: 1, Rules: []Rule{
		{Kind: Crash, Engine: "pregel", Op: "superstep", Step: 3, Task: Any, Attempt: 0, Prob: 1},
	}}, nil)
	if _, ok := in.FailAt(Site{Engine: "pregel", Op: "superstep", Step: 2, Task: Any}); ok {
		t.Fatal("fired at non-matching step")
	}
	if _, ok := in.FailAt(Site{Engine: "gas", Op: "superstep", Step: 3, Task: Any}); ok {
		t.Fatal("fired at non-matching engine")
	}
	if _, ok := in.FailAt(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any, Attempt: 1}); ok {
		t.Fatal("fired at non-matching attempt")
	}
	kind, ok := in.FailAt(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any})
	if !ok || kind != Crash {
		t.Fatalf("expected crash at the matching site, got %v %v", kind, ok)
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if _, ok := in.FailAt(Site{}); ok {
		t.Fatal("nil injector fired")
	}
	if in.DropAt(Site{}) || in.DelayAt(Site{}) {
		t.Fatal("nil injector dropped/delayed")
	}
	if _, ok := in.StragglerAt(Site{}); ok {
		t.Fatal("nil injector straggled")
	}
	if in.CheckpointHint() != 0 || in.Injected() != 0 {
		t.Fatal("nil accessors not zero")
	}
}

func TestRegistryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(Plan{Seed: 1, Rules: []Rule{
		{Kind: MsgDrop, Step: 0, Task: Any, Attempt: Any, Prob: 1},
		{Kind: Straggler, Step: 1, Task: Any, Attempt: Any, Prob: 1},
	}}, reg)
	in.DropAt(Site{Engine: "pregel", Op: "deliver", Step: 0, Task: 0})
	in.DropAt(Site{Engine: "pregel", Op: "deliver", Step: 0, Task: 1})
	in.DropAt(Site{Engine: "pregel", Op: "deliver", Step: 1, Task: 2}) // no rule matches
	if f, ok := in.StragglerAt(Site{Engine: "gas", Op: "worker", Step: 1, Task: 0}); !ok || f != StragglerFactor {
		t.Fatalf("straggler factor = %v ok=%v", f, ok)
	}
	if got := reg.Counter("fault.injected").Get(); got != 3 {
		t.Fatalf("fault.injected = %d", got)
	}
	if got := reg.Counter("fault.msg_drop").Get(); got != 2 {
		t.Fatalf("fault.msg_drop = %d", got)
	}
	if got := reg.Counter("fault.straggler").Get(); got != 1 {
		t.Fatalf("fault.straggler = %d", got)
	}
}

func TestCrashAtAndDefaults(t *testing.T) {
	r := CrashAt(4)
	if r.Step != 4 || r.Task != Any || r.Attempt != 0 || r.Kind != Crash {
		t.Fatalf("CrashAt: %+v", r)
	}
	in := New(Plan{Seed: 9, Rules: []Rule{r}}, nil)
	if _, ok := in.FailAt(Site{Engine: "pregel", Op: "superstep", Step: 4, Task: Any, Attempt: 0}); !ok {
		t.Fatal("CrashAt(4) did not fire at step 4 attempt 0")
	}
	if _, ok := in.FailAt(Site{Engine: "pregel", Op: "superstep", Step: 4, Task: Any, Attempt: 1}); ok {
		t.Fatal("CrashAt(4) fired on the retry attempt")
	}
	p := DefaultPlan(1)
	if len(p.Rules) == 0 || p.CheckpointEvery == 0 {
		t.Fatalf("DefaultPlan: %+v", p)
	}
}

func TestBackoff(t *testing.T) {
	for i, want := range []int{1, 2, 4, 8, 8, 8} {
		if got := BackoffUnits(i); got != want {
			t.Fatalf("BackoffUnits(%d) = %d, want %d", i, got, want)
		}
	}
	if BackoffUnits(-1) != 1 {
		t.Fatal("negative attempt not clamped")
	}
}

func TestErrBudgetExhaustedIsTyped(t *testing.T) {
	wrapped := fmt.Errorf("engine: superstep 3 failed 4 attempts: %w", ErrBudgetExhausted)
	if !errors.Is(wrapped, ErrBudgetExhausted) {
		t.Fatal("wrapped budget error not matched by errors.Is")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Crash: "crash", TaskFail: "task_fail", MsgDrop: "msg_drop",
		MsgDelay: "msg_delay", Straggler: "straggler", OOM: "oom",
	} {
		if k.String() != want {
			t.Fatalf("Kind %d String = %q, want %q", k, k.String(), want)
		}
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(10, 12); got < 0.199 || got > 0.201 {
		t.Fatalf("Overhead(10,12) = %v", got)
	}
	if Overhead(0, 12) != 0 {
		t.Fatal("degenerate baseline must give 0")
	}
}
