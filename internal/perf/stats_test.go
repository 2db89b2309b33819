package perf

// The repetition statistics live in internal/metrics. Their known-
// vector tests stay here under the test IDs the tier-1 floor records
// (repro/internal/perf:Test…), exercising the functions through the
// import every consumer uses.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMedianCVKnownVectors(t *testing.T) {
	cases := []struct {
		name             string
		xs               []float64
		mean, median, sd float64
		cv               float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", []float64{7}, 7, 7, 0, 0},
		{"pair", []float64{2, 4}, 3, 3, math.Sqrt2, math.Sqrt2 / 3},
		{"evenN", []float64{1, 2, 3, 4}, 2.5, 2.5, math.Sqrt(5.0 / 3.0), math.Sqrt(5.0/3.0) / 2.5},
		{"oddN", []float64{5, 1, 3}, 3, 3, 2, 2.0 / 3.0},
		{"allEqual", []float64{4, 4, 4, 4}, 4, 4, 0, 0},
		{"zeroMean", []float64{-1, 1}, 0, 0, math.Sqrt2, 0},
	}
	for _, c := range cases {
		if got := metrics.Mean(c.xs); !near(got, c.mean) {
			t.Errorf("%s: Mean = %v, want %v", c.name, got, c.mean)
		}
		if got := metrics.Median(c.xs); !near(got, c.median) {
			t.Errorf("%s: Median = %v, want %v", c.name, got, c.median)
		}
		if got := metrics.StdDev(c.xs); !near(got, c.sd) {
			t.Errorf("%s: StdDev = %v, want %v", c.name, got, c.sd)
		}
		if got := metrics.CV(c.xs); !near(got, c.cv) {
			t.Errorf("%s: CV = %v, want %v", c.name, got, c.cv)
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	metrics.Median(xs)
	metrics.Quantile(xs, 0.75)
	metrics.IQROutliers(xs)
	if !reflect.DeepEqual(xs, []float64{9, 1, 5}) {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestIQROutlierEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want []int
	}{
		{"empty", nil, nil},
		{"n=1", []float64{42}, nil},
		{"n=2 far apart", []float64{1, 100}, nil}, // fences span the pair
		{"all equal", []float64{5, 5, 5, 5, 5}, nil},
		{"single high outlier", []float64{10, 10, 10, 10, 100}, []int{4}},
		{"single low outlier", []float64{100, 10, 10, 10, 10}, []int{0}},
		{"no outliers", []float64{10, 11, 12, 13, 14}, nil},
		{"outlier keeps input index", []float64{10, 100, 10, 10, 10}, []int{1}},
	}
	for _, c := range cases {
		if got := metrics.IQROutliers(c.xs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: IQROutliers(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	st := metrics.Summarize([]float64{10, 10, 10, 10, 100})
	if st.N != 5 {
		t.Fatalf("N = %d", st.N)
	}
	if !near(st.Mean, 28) || !near(st.Median, 10) {
		t.Fatalf("mean/median = %v/%v", st.Mean, st.Median)
	}
	if !near(st.Min, 10) || !near(st.Max, 100) {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	// sample sd of {10,10,10,10,100}: ss = 4*18^2 + 72^2 = 6480, sd = sqrt(1620)
	if !near(st.StdDev, math.Sqrt(1620)) {
		t.Fatalf("sd = %v", st.StdDev)
	}
	if !near(st.CV, math.Sqrt(1620)/28) {
		t.Fatalf("cv = %v", st.CV)
	}
	if !reflect.DeepEqual(st.Outliers, []int{4}) {
		t.Fatalf("outliers = %v", st.Outliers)
	}

	if st := metrics.Summarize(nil); st.N != 0 || st.CV != 0 || st.Outliers != nil {
		t.Fatalf("empty summary = %+v", st)
	}
	if st := metrics.Summarize([]float64{3}); st.N != 1 || st.CV != 0 || st.Mean != 3 || len(st.Outliers) != 0 {
		t.Fatalf("n=1 summary = %+v", st)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		if got := metrics.Quantile(xs, c.p); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := metrics.Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v", got)
	}
}
