package platform

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosScale is the chaos CI gate's scale (graphbench -scale 40 -nodes
// 4): large enough that mapreduce runs its map and reduce tasks in
// parallel, which is where a fault decision that depends on arrival
// order would show.
const chaosScale = 40

// chaosFingerprint renders what one fault-injected run decided and
// what it cost: the injector's total and per-kind counts, the engine
// recovery counters, the exact bits of the projected seconds and every
// profile phase.
func chaosFingerprint(t *testing.T, p Platform, spec Spec, seed int64) []byte {
	t.Helper()
	sess := obs.NewSession(obs.Options{NoSampler: true})
	defer sess.Close()
	inj := fault.New(fault.DefaultPlan(seed), sess.R())
	spec.Obs, spec.Fault = sess, inj
	r := p.Run(spec)
	if r.Status != OK {
		t.Fatalf("%s %s seed %d: %v (%v)", p.Name(), spec.Algorithm, seed, r.Status, r.Err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "injected %d", inj.Injected())
	for _, k := range []fault.Kind{fault.Crash, fault.TaskFail, fault.MsgDrop, fault.MsgDelay, fault.Straggler, fault.OOM, fault.MsgDup} {
		fmt.Fprintf(&out, " %v=%d", k, inj.InjectedOf(k))
	}
	c := sess.R().Snapshot().Counters
	fmt.Fprintf(&out, "\nretries %d am_restarts %d restores %d refetch %d\nseconds %#016x\n",
		c["task.retries"], c["yarn.am_restarts"], c["checkpoint.restore"], c["shuffle.refetch"],
		math.Float64bits(r.Seconds))
	for _, ph := range r.Profile.Phases {
		fmt.Fprintf(&out, "phase %v\n", ph)
	}
	return out.Bytes()
}

// TestChaosRepeatable holds the fault injector to its contract: a chaos
// run is a pure function of (seed, plan). Repeating one run must repeat
// which faults fired, the recovery they caused and the modelled cost to
// the bit, however the engine's parallel tasks are scheduled.
func TestChaosRepeatable(t *testing.T) {
	prof, err := datagen.ByName("KGS")
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(chaosScale, 42)
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	for _, name := range []string{"Giraph", "Hadoop", "YARN", "Stratosphere", "GraphLab"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			spec := Spec{
				Algorithm: "BFS", Dataset: prof, G: g, HW: cluster.DAS4(4, 1),
				Params: params, WarmCache: true, ScaleFactor: chaosScale,
			}
			want := chaosFingerprint(t, p, spec, seed)
			if bytes.Contains(want, []byte("\nretries 0 am_restarts 0 restores 0")) {
				t.Fatalf("%s seed %d: the plan caused no recovery:\n%s", name, seed, want)
			}
			for rep := 1; rep < 2; rep++ {
				if got := chaosFingerprint(t, p, spec, seed); !bytes.Equal(got, want) {
					t.Fatalf("%s seed %d: repetition %d differs:\n got: %s\nwant: %s", name, seed, rep, got, want)
				}
			}
		}
	}
}
