package fault

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
			_, af := a.failAt(s)
			_, bf := b.failAt(s)
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
			_, f := in.failAt(Site{Engine: "gas", Op: "iteration", Step: step, Task: Any})
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
	if _, ok := in.failAt(Site{Engine: "pregel", Op: "superstep", Step: 2, Task: Any}); ok {
		t.Fatal("fired at non-matching step")
	}
	if _, ok := in.failAt(Site{Engine: "gas", Op: "superstep", Step: 3, Task: Any}); ok {
		t.Fatal("fired at non-matching engine")
	}
	if _, ok := in.failAt(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any, Attempt: 1}); ok {
		t.Fatal("fired at non-matching attempt")
	}
	kind, ok := in.failAt(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any})
	if !ok || kind != Crash {
		t.Fatalf("expected crash at the matching site, got %v %v", kind, ok)
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if _, ok := in.failAt(Site{}); ok {
		t.Fatal("nil injector fired")
	}
	if in.DropAt(Site{}) || in.DelayAt(Site{}) {
		t.Fatal("nil injector dropped/delayed")
	}
	if _, ok := in.StragglerAt(Site{}); ok {
		t.Fatal("nil injector straggled")
	}
	if in.CheckpointEvery() != 0 || in.Injected() != 0 {
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
	if _, ok := in.failAt(Site{Engine: "pregel", Op: "superstep", Step: 4, Task: Any, Attempt: 0}); !ok {
		t.Fatal("CrashAt(4) did not fire at step 4 attempt 0")
	}
	if _, ok := in.failAt(Site{Engine: "pregel", Op: "superstep", Step: 4, Task: Any, Attempt: 1}); ok {
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

// TestErrBudgetExhaustedIsTyped holds the error Injector.Retry returns
// at budget exhaustion to ErrBudgetExhausted as the engines return it:
// wrapped once more by the caller.
func TestErrBudgetExhaustedIsTyped(t *testing.T) {
	always := New(Plan{Seed: 1, Rules: []Rule{{Kind: Crash, Step: Any, Task: Any, Attempt: Any}}}, nil)
	_, err := always.Retry(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any}, func(int) {}, func(int) {})
	if err == nil {
		t.Fatal("every attempt lost: no error")
	}
	if wrapped := fmt.Errorf("engine: %w", err); !errors.Is(wrapped, ErrBudgetExhausted) {
		t.Fatalf("wrapped budget error %v not matched by errors.Is", wrapped)
	}
}

// TestRetry pins the one attempt rule: attempts are numbered from 0,
// lost runs once per failed attempt, and the DefaultMaxAttempts-th
// failure ends the retries with an error naming the site.
func TestRetry(t *testing.T) {
	site := Site{Engine: "mapreduce", Op: "map", Step: 2, Task: 5}
	run := func(in *Injector) (bodies, losts []int, held Site, err error) {
		held, err = in.Retry(site,
			func(a int) { bodies = append(bodies, a) },
			func(a int) { losts = append(losts, a) })
		return bodies, losts, held, err
	}

	once := New(Plan{Seed: 1, Rules: []Rule{{Kind: TaskFail, Step: Any, Task: Any, Attempt: 0}}}, nil)
	bodies, losts, held, err := run(once)
	if err != nil || !slices.Equal(bodies, []int{0, 1}) || !slices.Equal(losts, []int{0}) || held.Attempt != 1 {
		t.Fatalf("first attempt lost: bodies %v, lost %v, held attempt %d, err %v", bodies, losts, held.Attempt, err)
	}

	always := New(Plan{Seed: 1, Rules: []Rule{{Kind: OOM, Step: Any, Task: Any, Attempt: Any}}}, nil)
	bodies, losts, _, err = run(always)
	var want []int
	for a := 0; a < DefaultMaxAttempts; a++ {
		want = append(want, a)
	}
	if !slices.Equal(bodies, want) || !slices.Equal(losts, want) {
		t.Fatalf("every attempt lost: bodies %v, lost %v, want %v each", bodies, losts, want)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("every attempt lost: err = %v, want ErrBudgetExhausted", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "mapreduce map at step 2, task 5") {
		t.Fatalf("budget error %q does not name the site", msg)
	}

	bodies, losts, held, err = run(nil)
	if err != nil || !slices.Equal(bodies, []int{0}) || losts != nil || held != site {
		t.Fatalf("nil injector: bodies %v, lost %v, held %+v, err %v", bodies, losts, held, err)
	}
}

// TestAttempt is the single-attempt form a caller that numbers its own
// attempts uses: every failure is lost, only the last one is an error.
func TestAttempt(t *testing.T) {
	in := New(Plan{Seed: 1, Rules: []Rule{{Kind: Crash, Step: 3, Task: Any, Attempt: Any}}}, nil)
	for a := 0; a < DefaultMaxAttempts; a++ {
		lost, err := in.Attempt(Site{Engine: "pregel", Op: "superstep", Step: 3, Task: Any, Attempt: a})
		if last := a == DefaultMaxAttempts-1; !lost || (err != nil) != last {
			t.Fatalf("attempt %d: lost %v, err %v", a, lost, err)
		}
		if err != nil && (!errors.Is(err, ErrBudgetExhausted) || !strings.Contains(err.Error(), "pregel superstep at step 3:")) {
			t.Fatalf("attempt %d: err %q, want ErrBudgetExhausted naming the site", a, err)
		}
	}
	if lost, err := in.Attempt(Site{Engine: "pregel", Op: "superstep", Step: 4, Task: Any}); lost || err != nil {
		t.Fatalf("unmatched site: lost %v, err %v", lost, err)
	}
	var none *Injector
	if lost, err := none.Attempt(Site{Step: 3, Task: Any, Attempt: DefaultMaxAttempts - 1}); lost || err != nil {
		t.Fatalf("nil injector: lost %v, err %v", lost, err)
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
