package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEPSVPS(t *testing.T) {
	if got := EPS(1000, 10); got != 100 {
		t.Fatalf("EPS = %v", got)
	}
	if got := VPS(500, 10); got != 50 {
		t.Fatalf("VPS = %v", got)
	}
	if EPS(100, 0) != 0 || VPS(100, -1) != 0 {
		t.Fatal("non-positive time should yield 0")
	}
}

func TestNEPSNVPS(t *testing.T) {
	// 1000 edges in 10 s on 20 nodes x 1 core: 100 EPS / 20 = 5.
	if got := NEPS(1000, 10, 20, 1); got != 5 {
		t.Fatalf("NEPS = %v", got)
	}
	// Vertical variant normalises by cores too.
	if got := NEPS(1000, 10, 20, 4); got != 1.25 {
		t.Fatalf("NEPS cores = %v", got)
	}
	if got := NVPS(1000, 10, 10, 1); got != 10 {
		t.Fatalf("NVPS = %v", got)
	}
	if NEPS(1, 1, 0, 1) != 0 {
		t.Fatal("zero units should yield 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("sample = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("empty = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.StdDev != 0 || one.Mean != 7 {
		t.Fatalf("single = %+v", one)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{90, 100, 110}
	if cv := CV(xs); cv <= 0 || cv > 0.2 || cv != Summarize(xs).CV {
		t.Fatalf("CV = %v, summary CV = %v", cv, Summarize(xs).CV)
	}
	if CV(nil) != 0 || (Stats{}).CV != 0 {
		t.Fatal("zero-mean CV should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	if got := Speedup(100, 50); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	// Doubling nodes, halving time: perfect efficiency.
	if got := ScalingEfficiency(20, 40, 100, 50); math.Abs(got-1) > 1e-12 {
		t.Fatalf("efficiency = %v", got)
	}
	// Doubling nodes, same time: 50% efficiency.
	if got := ScalingEfficiency(20, 40, 100, 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("efficiency = %v", got)
	}
}

func TestQuickNEPSDecreasesWithUnits(t *testing.T) {
	f := func(e uint32, n uint8) bool {
		nodes := int(n)%50 + 1
		a := NEPS(int64(e), 10, nodes, 1)
		b := NEPS(int64(e), 10, nodes+1, 1)
		return b <= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Summarize(vals)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.99, 100}, {1, 100}, {1.5, 100}} {
		if got := NearestRank(sorted, c.p); got != c.want {
			t.Errorf("NearestRank(p=%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if NearestRank([]int(nil), 0.5) != 0 {
		t.Error("empty sample should yield the zero value")
	}
}
