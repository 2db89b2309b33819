package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/platform"
)

// TestChaosMatchAcrossEngines: one crash mid-run per engine, recovery
// yields the fault-free output with nonzero recovery counters and a
// visible T penalty.
func TestChaosMatchAcrossEngines(t *testing.T) {
	h := quick()
	hw := cluster.DAS4(4, 1)
	for _, name := range []string{"Giraph", "Hadoop", "YARN", "Stratosphere", "GraphLab"} {
		rep := h.Chaos(name, "BFS", "KGS", hw, fault.DefaultPlan(1))
		if rep.Err != nil {
			t.Fatalf("%s: %v", name, rep.Err)
		}
		if !rep.Match {
			t.Fatalf("%s: chaos output diverged from fault-free run", name)
		}
		if rep.Injected == 0 {
			t.Fatalf("%s: no faults injected", name)
		}
		if rep.Retries == 0 && rep.Restores == 0 {
			t.Fatalf("%s: no recovery observed (retries=0, restores=0)", name)
		}
		if rep.FaultSeconds <= rep.BaselineSeconds {
			t.Fatalf("%s: no T penalty: baseline=%v chaos=%v",
				name, rep.BaselineSeconds, rep.FaultSeconds)
		}
		if rep.PenaltyPct <= 0 {
			t.Fatalf("%s: penalty = %v, want > 0", name, rep.PenaltyPct)
		}
	}
}

// TestChaosGraphLabEVO: GraphLab's EVO batches are iteration fault
// sites, so the default plan injects faults into them, and each failed
// batch reruns to the fault-free output.
func TestChaosGraphLabEVO(t *testing.T) {
	h := quick()
	for seed := int64(1); seed <= 3; seed++ {
		rep := h.Chaos("GraphLab", "EVO", "KGS", cluster.DAS4(4, 1), fault.DefaultPlan(seed))
		if rep.Err != nil || !rep.Match {
			t.Fatalf("seed %d: err=%v match=%v", seed, rep.Err, rep.Match)
		}
		if rep.Injected == 0 || rep.Retries == 0 {
			t.Fatalf("seed %d: injected=%d retries=%d, want both > 0", seed, rep.Injected, rep.Retries)
		}
		if rep.PenaltyPct <= 0 {
			t.Fatalf("seed %d: penalty = %v, want > 0", seed, rep.PenaltyPct)
		}
	}
}

// TestChaosPastTheLimit: Hadoop's fault-free STATS on KGS projects
// about 3.4 h, so its recovery penalty carries the chaos run past the
// 4 h limit. The run still recovered to the right output: it is a
// MATCH with its penalty, and the result line says it crossed the
// limit.
func TestChaosPastTheLimit(t *testing.T) {
	rep := quick().Chaos("Hadoop", "STATS", "KGS", cluster.DAS4(4, 1), fault.DefaultPlan(1))
	if rep.Err != nil || !rep.Match {
		t.Fatalf("err=%v match=%v", rep.Err, rep.Match)
	}
	if rep.BaselineSeconds > platform.DistributedTimeout || rep.FaultSeconds <= platform.DistributedTimeout {
		t.Fatalf("baseline %.0f s, chaos %.0f s: want the chaos run alone past the limit",
			rep.BaselineSeconds, rep.FaultSeconds)
	}
	if rep.PenaltyPct <= 0 {
		t.Fatalf("penalty = %v, want > 0", rep.PenaltyPct)
	}
	if s := rep.String(); !strings.Contains(s, "result:    MATCH (past the 4 h limit") {
		t.Fatalf("result line does not say the run crossed the limit:\n%s", s)
	}
}

// TestChaosReportString pins the rendered block's key fields.
func TestChaosReportString(t *testing.T) {
	rep := ChaosReport{
		Platform: "Giraph", Algorithm: "BFS", Dataset: "KGS", Seed: 7,
		Match: true, BaselineSeconds: 10, FaultSeconds: 12, PenaltyPct: 20,
		Injected: 2, Retries: 1, Restores: 1,
		BaselineEPS: 1e6, FaultEPS: 8e5,
	}
	s := rep.String()
	for _, want := range []string{"MATCH", "seed=7", "injected=2", "penalty=20.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	rep.Match = false
	if !strings.Contains(rep.String(), "MISMATCH") {
		t.Fatal("mismatch not rendered")
	}
}
