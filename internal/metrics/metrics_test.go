package metrics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("sample = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if got := Summarize(nil); got.N != 0 || got.CV != 0 || got.Outliers != nil {
		t.Fatalf("empty = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.StdDev != 0 || one.Mean != 7 || one.CV != 0 || len(one.Outliers) != 0 {
		t.Fatalf("single = %+v", one)
	}

	// One slow repetition among equal ones: the extremes and the
	// flagged index land in the summary.
	slow := Summarize([]float64{10, 10, 10, 10, 100})
	if slow.Min != 10 || slow.Max != 100 || !reflect.DeepEqual(slow.Outliers, []int{4}) {
		t.Fatalf("one slow repetition = %+v", slow)
	}
}

// TestMeanMedianCVKnownVectors checks the free functions and the
// summary against hand-computed vectors; CV is read through Summarize.
func TestMeanMedianCVKnownVectors(t *testing.T) {
	for _, c := range []struct {
		name                 string
		xs                   []float64
		mean, median, sd, cv float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", []float64{7}, 7, 7, 0, 0},
		{"pair", []float64{2, 4}, 3, 3, math.Sqrt2, math.Sqrt2 / 3},
		{"evenN", []float64{1, 2, 3, 4}, 2.5, 2.5, math.Sqrt(5.0 / 3.0), math.Sqrt(5.0/3.0) / 2.5},
		{"oddN", []float64{5, 1, 3}, 3, 3, 2, 2.0 / 3.0},
		{"allEqual", []float64{4, 4, 4, 4}, 4, 4, 0, 0},
		{"zeroMean", []float64{-1, 1}, 0, 0, math.Sqrt2, 0},
		// sample sd of {10,10,10,10,100}: ss = 4*18^2 + 72^2 = 6480, sd = sqrt(1620)
		{"oneHigh", []float64{10, 10, 10, 10, 100}, 28, 10, math.Sqrt(1620), math.Sqrt(1620) / 28},
	} {
		st := Summarize(c.xs)
		if !near(st.Mean, c.mean) || !near(Mean(c.xs), c.mean) {
			t.Errorf("%s: mean = %v / %v, want %v", c.name, st.Mean, Mean(c.xs), c.mean)
		}
		if !near(st.Median, c.median) || !near(Median(c.xs), c.median) {
			t.Errorf("%s: median = %v / %v, want %v", c.name, st.Median, Median(c.xs), c.median)
		}
		if !near(st.StdDev, c.sd) || !near(StdDev(c.xs), c.sd) {
			t.Errorf("%s: sd = %v / %v, want %v", c.name, st.StdDev, StdDev(c.xs), c.sd)
		}
		if !near(st.CV, c.cv) {
			t.Errorf("%s: cv = %v, want %v", c.name, st.CV, c.cv)
		}
	}
}

// TestIQROutlierEdgeCases checks the Tukey fences on degenerate and
// boundary vectors; the summary carries the same indices.
func TestIQROutlierEdgeCases(t *testing.T) {
	for _, c := range []struct {
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
		// Interpolated quartiles 0.75 and 3.25 put the upper fence at
		// exactly 7: on it is inside, past it is out.
		{"on the interpolated fence", []float64{0, 1, 2, 7}, nil},
		{"past the interpolated fence", []float64{0, 1, 2, 7.1}, []int{3}},
	} {
		if got := IQROutliers(c.xs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: IQROutliers(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
		if got := Summarize(c.xs).Outliers; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Summarize(%v).Outliers = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

// TestQuantile checks the interpolating estimator behind the fences'
// Q1 and Q3.
func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {-1, 1}, {2, 5},
	} {
		if got := quantileSorted(s, c.p); !near(got, c.want) {
			t.Errorf("quantileSorted(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCV(t *testing.T) {
	xs := []float64{90, 100, 110}
	if cv := Summarize(xs).CV; cv <= 0 || cv > 0.2 || !near(cv, StdDev(xs)/Mean(xs)) {
		t.Fatalf("CV = %v, StdDev/Mean = %v", cv, StdDev(xs)/Mean(xs))
	}
	if Summarize(nil).CV != 0 || Summarize([]float64{-1, 1}).CV != 0 {
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

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	Median(xs)
	IQROutliers(xs)
	Summarize(xs)
	if !reflect.DeepEqual(xs, []float64{9, 1, 5}) {
		t.Fatalf("input reordered: %v", xs)
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
