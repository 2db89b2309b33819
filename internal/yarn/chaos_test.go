package yarn

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func chaosRM(plan fault.Plan) (*ResourceManager, *obs.Session) {
	rm := newRM()
	sess := obs.NewSession(obs.Options{NoSampler: true})
	rm.Obs = sess
	rm.Fault = fault.New(plan, sess.R())
	return rm, sess
}

func TestAMRelaunchRecovers(t *testing.T) {
	rm, sess := chaosRM(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{
			{Kind: fault.Crash, Op: "am-launch", Step: fault.Any, Task: fault.Any, Attempt: 0, Prob: 1},
		},
	})
	defer sess.Close()
	am, err := rm.Submit("bfs", 1<<30)
	if err != nil {
		t.Fatalf("AM relaunch should have recovered: %v", err)
	}
	if got := sess.R().Counter("yarn.am_restarts").Get(); got != 1 {
		t.Fatalf("yarn.am_restarts = %d, want 1", got)
	}
	if got := sess.R().Counter("task.retries").Get(); got != 1 {
		t.Fatalf("task.retries = %d, want 1", got)
	}
	var relaunch bool
	for _, ph := range am.Engine().Profile.Phases {
		if ph.Name == "yarn:am-relaunch" && ph.Tasks > 0 {
			relaunch = true
		}
	}
	if !relaunch {
		t.Fatal("no yarn:am-relaunch phase in the application profile")
	}
	if rm.allocated != 1<<30 {
		t.Fatalf("after recovery: allocated=%d", rm.allocated)
	}
	am.Finish()
}

func TestAMBudgetExhausted(t *testing.T) {
	rm, sess := chaosRM(fault.Plan{
		Seed: 1,
		Rules: []fault.Rule{
			{Kind: fault.Crash, Op: "am-launch", Step: fault.Any, Task: fault.Any, Attempt: fault.Any, Prob: 1},
		},
	})
	defer sess.Close()
	_, err := rm.Submit("bfs", 1<<30)
	if err == nil {
		t.Fatal("expected budget exhaustion, got nil")
	}
	if !errors.Is(err, fault.ErrBudgetExhausted) {
		t.Fatalf("error not typed as ErrBudgetExhausted: %v", err)
	}
	if rm.allocated != 0 {
		t.Fatalf("failed submit leaked %d bytes of allocation", rm.allocated)
	}
}
