package gasalgo

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
)

// crashProfile returns a profile whose injector kills the first attempt
// of iteration k, and a check that exactly one crash was injected.
func crashProfile(t *testing.T, k int) (*cluster.ExecutionProfile, func()) {
	t.Helper()
	sess := obs.NewSession(obs.Options{NoSampler: true})
	inj := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{fault.CrashAt(k)}}, sess.R())
	return &cluster.ExecutionProfile{Obs: sess, Fault: inj}, func() {
		t.Helper()
		sess.Close()
		if got := inj.InjectedOf(fault.Crash); got != 1 {
			t.Fatalf("k=%d: injected %d crashes, want 1", k, got)
		}
	}
}

// TestStatsRestartEquivalence: the pooled link counter a vertex's
// accumulator carries from its first gather to Apply, and the worker's
// reused accumulator itself, survive a failed attempt — the rerun's
// AvgLCC and every measured stat equal the fault-free run's.
func TestStatsRestartEquivalence(t *testing.T) {
	for _, g := range testGraphs(t) {
		base, baseSt, err := Stats(g, hw(), 1000, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		profile, check := crashProfile(t, 0)
		got, st, err := Stats(g, hw(), 1000, false, profile)
		if err != nil {
			t.Fatal(err)
		}
		check()
		if got != base {
			t.Fatalf("%v: STATS %+v after a restart, want %+v", g, got, base)
		}
		if *st != *baseSt {
			t.Fatalf("%v: stats diverged: %+v vs %+v", g, *st, *baseSt)
		}
	}
}

// TestCDRestartEquivalence: the worker's vote buffer outlives a vertex
// and a failed attempt; the rerun's labels and stats still equal the
// fault-free run's at every restarted iteration.
func TestCDRestartEquivalence(t *testing.T) {
	p := algo.DefaultParams(42)
	for _, g := range testGraphs(t) {
		base, baseSt, err := CD(g, hw(), p, 1000, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, base.Iterations - 1} {
			profile, check := crashProfile(t, k)
			got, st, err := CD(g, hw(), p, 1000, false, profile)
			if err != nil {
				t.Fatal(err)
			}
			check()
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%v k=%d: CD diverged from the fault-free run", g, k)
			}
			if *st != *baseSt {
				t.Fatalf("%v k=%d: stats diverged: %+v vs %+v", g, k, *st, *baseSt)
			}
		}
	}
}

// TestCDVotesDoNotLeak: a hub (vertex 0, neighbours 2..6) is gathered
// just before a leaf (vertex 1, one neighbour 7) on the same worker.
// The leaf's only vote is label 7; had the hub's five votes stayed in
// the reused buffer, the six one-vote labels would tie and 2 would win.
func TestCDVotesDoNotLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker, one chunk
	b := graph.NewBuilder(8, false)
	for v := graph.VertexID(2); v <= 6; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 7)
	g := b.Build()
	p := algo.DefaultParams(42)
	p.CDMaxIterations = 1
	got, _, err := CD(g, hw(), p, 1000, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels[1] != 7 {
		t.Fatalf("leaf label = %d after one round, want 7 (its only neighbour's)", got.Labels[1])
	}
	p = algo.DefaultParams(42)
	want := algo.RefCD(g, p)
	if got, _, err = CD(g, hw(), p, 1000, false, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("labels = %v, want %v", got.Labels, want.Labels)
	}
}
