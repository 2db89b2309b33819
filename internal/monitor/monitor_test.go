package monitor_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/platform"
)

// record is Record with the named platform's own signature.
func record(name string, b cluster.Breakdown, iterations int) monitor.Trace {
	p, err := platform.ByName(name)
	if err != nil {
		panic(err)
	}
	return monitor.Record(name, p.Signature(), b, iterations)
}

func sampleBreakdown(total float64) cluster.Breakdown {
	return cluster.Breakdown{
		Total: total, Compute: total / 2, Overhead: total / 2,
		PerPhase: []cluster.PhaseTime{
			{Name: "setup", Kind: cluster.PhaseSetup, Seconds: total * 0.1},
			{Name: "read", Kind: cluster.PhaseRead, Seconds: total * 0.2},
			{Name: "compute", Kind: cluster.PhaseCompute, Seconds: total * 0.5},
			{Name: "write", Kind: cluster.PhaseWrite, Seconds: total * 0.2},
		},
	}
}

func TestRecordShapes(t *testing.T) {
	for _, p := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab"} {
		tr := record(p, sampleBreakdown(300), 6)
		if tr.Platform != p {
			t.Fatalf("platform = %q", tr.Platform)
		}
		// Master nearly idle: CPU below 0.5%, net below ~1 Mbit/s
		// (Figures 5 and 7).
		if m := monitor.Max(tr.Master.CPU); m > 0.5 {
			t.Errorf("%s: master CPU max %.2f%%, want < 0.5%%", p, m)
		}
		if m := monitor.Max(tr.Master.NetMbps); m > 1.05 {
			t.Errorf("%s: master net max %.2f Mbit/s, want ≈ < 1", p, m)
		}
		// Master memory ≈ 8 GB (Figure 6).
		if avg := monitor.Mean(tr.Master.MemGB); avg < 7 || avg > 9 {
			t.Errorf("%s: master mem %.1f GB, want ≈ 8", p, avg)
		}
		// Compute node curves positive and bounded.
		if m := monitor.Max(tr.Compute.CPU); m <= 0 || m > 100 {
			t.Errorf("%s: compute CPU max %.2f", p, m)
		}
	}
}

func TestStratospherePreallocation(t *testing.T) {
	// Figure 9: Stratosphere workers hold ~20 GB throughout.
	tr := record("Stratosphere", sampleBreakdown(200), 6)
	if avg := monitor.Mean(tr.Compute.MemGB); avg < 18 {
		t.Fatalf("Stratosphere mem avg %.1f GB, want ≈ 20", avg)
	}
}

func TestStratosphereHeaviestNetwork(t *testing.T) {
	// Figure 10: Stratosphere has the heaviest network traffic,
	// Giraph/GraphLab the lightest.
	b := sampleBreakdown(200)
	strato := monitor.Max(record("Stratosphere", b, 6).Compute.NetMbps)
	hadoop := monitor.Max(record("Hadoop", b, 6).Compute.NetMbps)
	giraph := monitor.Max(record("Giraph", b, 6).Compute.NetMbps)
	graphlab := monitor.Max(record("GraphLab", b, 6).Compute.NetMbps)
	if !(strato > hadoop && hadoop > giraph && giraph >= graphlab) {
		t.Fatalf("network ordering: strato=%.0f hadoop=%.0f giraph=%.0f graphlab=%.0f",
			strato, hadoop, giraph, graphlab)
	}
}

func TestHadoopSawtooth(t *testing.T) {
	// Hadoop memory oscillates per iteration; the curve must not be
	// flat.
	tr := record("Hadoop", sampleBreakdown(300), 6)
	min, max := tr.Compute.MemGB[0], tr.Compute.MemGB[0]
	for _, x := range tr.Compute.MemGB {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max-min < 2 {
		t.Fatalf("Hadoop memory range %.1f GB, want visible sawtooth", max-min)
	}
}

func TestGiraphLightResources(t *testing.T) {
	// "the resource usage of Giraph and GraphLab are much smaller"
	b := sampleBreakdown(200)
	if g, h := monitor.Mean(record("Giraph", b, 6).Compute.MemGB), monitor.Mean(record("Hadoop", b, 6).Compute.MemGB); g >= h {
		t.Fatalf("Giraph mem %.1f should be below Hadoop %.1f", g, h)
	}
}

func TestNormalizeShortAndLong(t *testing.T) {
	// Short runs (< 100 s) and long runs both produce exactly 100 points.
	short := record("Giraph", sampleBreakdown(10), 2)
	long := record("Hadoop", sampleBreakdown(5000), 20)
	if len(short.Compute.CPU) != monitor.Points || len(long.Compute.CPU) != monitor.Points {
		t.Fatal("curves must have exactly 100 points")
	}
}

func TestMeanMax(t *testing.T) {
	var c [monitor.Points]float64
	for i := range c {
		c[i] = float64(i % 10)
	}
	if m := monitor.Mean(c); m < 4 || m > 5 {
		t.Fatalf("Mean = %v", m)
	}
	if m := monitor.Max(c); m != 9 {
		t.Fatalf("Max = %v", m)
	}
}

func TestZeroDurationBreakdown(t *testing.T) {
	tr := record("Giraph", cluster.Breakdown{}, 0)
	if len(tr.Compute.CPU) != monitor.Points {
		t.Fatal("empty breakdown should still produce curves")
	}
}
