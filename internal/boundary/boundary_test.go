package boundary

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/platform"
)

const testScale = 40

func inputsFor(t *testing.T, dataset string) (Inputs, datagen.Profile) {
	t.Helper()
	prof, err := datagen.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(testScale, 42)
	return MeasureInputs(g, prof, testScale), prof
}

func measured(t *testing.T, platformName, alg, dataset string) *platform.Result {
	t.Helper()
	p, err := platform.ByName(platformName)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := datagen.ByName(dataset)
	g := prof.GenerateScaled(testScale, 42)
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	return p.Run(platform.Spec{
		Algorithm: alg, Dataset: prof, G: g, HW: cluster.DAS4(20, 1),
		Params: params, WarmCache: true, ScaleFactor: testScale,
	})
}

func TestBoundIsUpperBound(t *testing.T) {
	// The validation the paper's future work asks for: measured runs
	// never exceed the predicted worst case.
	hw := cluster.DAS4(20, 1)
	for _, ds := range []string{"Amazon", "KGS", "Citation"} {
		in, prof := inputsFor(t, ds)
		for _, pl := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "Neo4j"} {
			for _, alg := range []string{platform.BFS, platform.CONN, platform.CD, platform.EVO} {
				est, err := PredictFor(pl, alg, prof, in, hw)
				if err != nil {
					t.Fatal(err)
				}
				if est.Crash || est.Timeout {
					continue // feasibility predictions checked separately
				}
				r := measured(t, pl, alg, ds)
				if r.Status != platform.OK {
					continue
				}
				if r.Seconds > est.Seconds {
					t.Errorf("%s/%s/%s: measured %.1fs exceeds bound %.1fs",
						pl, alg, ds, r.Seconds, est.Seconds)
				}
			}
		}
	}
}

func TestBoundIsNotAbsurdlyLoose(t *testing.T) {
	// A useful bound stays within ~2 orders of magnitude of reality
	// for the fixed-iteration algorithms.
	hw := cluster.DAS4(20, 1)
	in, prof := inputsFor(t, "KGS")
	est, err := PredictFor("Hadoop", platform.CD, prof, in, hw)
	if err != nil {
		t.Fatal(err)
	}
	r := measured(t, "Hadoop", platform.CD, "KGS")
	if r.Status != platform.OK {
		t.Skip("Hadoop CD did not complete")
	}
	if est.Seconds > 100*r.Seconds {
		t.Fatalf("bound %.0fs is > 100x measured %.0fs", est.Seconds, r.Seconds)
	}
}

func TestCrashPredictionMatchesEngine(t *testing.T) {
	// Validate feasibility predictions against the engines at the same
	// scale; the degree skew that triggers the WikiTalk crash needs a
	// larger graph than the other boundary tests use.
	const crashScale = 8
	hw := cluster.DAS4(20, 1)
	cases := []struct {
		dataset string
		want    bool
	}{
		{"WikiTalk", true},
		{"Amazon", false},
		{"Citation", false},
	}
	for _, c := range cases {
		prof, err := datagen.ByName(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := prof.GenerateScaled(crashScale, 42)
		in := MeasureInputs(g, prof, crashScale)
		est, err := PredictFor("Giraph", platform.STATS, prof, in, hw)
		if err != nil {
			t.Fatal(err)
		}
		if est.Crash != c.want {
			t.Errorf("Giraph STATS/%s: predicted crash=%v, want %v (msg bytes %d)",
				c.dataset, est.Crash, c.want, est.MsgBytes)
		}
		// And the engines agree.
		p, _ := platform.ByName("Giraph")
		params := algo.DefaultParams(42)
		params.BFSSource = algo.PickSource(g, 42)
		r := p.Run(platform.Spec{
			Algorithm: platform.STATS, Dataset: prof, G: g, HW: hw,
			Params: params, ScaleFactor: crashScale,
		})
		if (r.Status == platform.Crashed) != c.want {
			t.Errorf("Giraph STATS/%s: engine status %v, predicted crash=%v",
				c.dataset, r.Status, c.want)
		}
	}
}

func TestPredictsNeo4jStatsTimeout(t *testing.T) {
	// DotaLeague's density saturates at extreme extra scales, so use
	// the moderate scale where the engine itself still times out.
	hw := cluster.SingleNode()
	prof, err := datagen.ByName("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(8, 42)
	in := MeasureInputs(g, prof, 8)
	est, err2 := PredictFor("Neo4j", platform.STATS, prof, in, hw)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !est.Timeout {
		t.Fatalf("model should predict Neo4j STATS/DotaLeague exceeding 20 h (bound %.1f h)",
			est.Seconds/3600)
	}
}

func TestPredictFixedIterationAlgorithms(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	in, prof := inputsFor(t, "Amazon")
	for alg, want := range map[string]int{platform.STATS: 1, platform.CD: 5, platform.EVO: 6} {
		est, err := PredictFor("Giraph", alg, prof, in, hw)
		if err != nil {
			t.Fatal(err)
		}
		if est.Iterations != want {
			t.Fatalf("%s iterations = %d, want %d", alg, est.Iterations, want)
		}
	}
	if _, err := PredictFor("Spark", platform.CD, prof, in, hw); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestMeasureInputs(t *testing.T) {
	prof, _ := datagen.ByName("KGS")
	g := prof.GenerateScaled(100, 42)
	in := MeasureInputs(g, prof, 100)
	if in.V != int64(g.NumVertices()) || in.E != g.NumEdges() {
		t.Fatalf("inputs = %+v", in)
	}
	if in.AdjSize != 2*in.E {
		t.Fatalf("undirected AdjSize = %d, want 2E", in.AdjSize)
	}
	if in.MaxDegree <= 0 || in.SumDeg2 < in.MaxDegree*in.MaxDegree {
		t.Fatalf("degree stats: %+v", in)
	}
	if in.Projection != 10*100 { // KGS's edge divisor times the extra scale
		t.Fatalf("projection = %d", in.Projection)
	}
}
