// Package metrics is the repository's one home for repetition
// statistics: the paper repeats each experiment 10 times, reports the
// average and observes at most 10% variance, so every repeated
// measurement is summarised as mean/median/CV over the vector plus
// Tukey-fence (1.5×IQR) outlier flags, the dispersion reporting "SoK:
// The Faults in our Graph Benchmarks" calls out as missing from
// single-shot benchmark numbers. The throughput metrics of the paper's
// Table 1 live with the run they measure: EPS and VPS are
// platform.Result's, and NEPS is EPS over nodes × cores.
package metrics

import (
	"math"
	"sort"
)

// Stats summarises n repetitions of one measurement.
type Stats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// StdDev is the sample standard deviation (n-1 denominator); zero
	// for fewer than two samples.
	StdDev float64 `json:"stddev"`
	// CV is the coefficient of variation StdDev/Mean — the paper-
	// comparable dispersion figure; zero when the mean is zero.
	CV float64 `json:"cv"`
	// Outliers are the indices (into the original vector) outside the
	// Tukey fences [Q1-1.5·IQR, Q3+1.5·IQR].
	Outliers []int `json:"outliers,omitempty"`
}

// Mean returns the arithmetic mean, 0 for an empty vector.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the middle value (mean of the central pair for even
// n), 0 for an empty vector.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// StdDev returns the sample standard deviation (n-1 denominator), 0
// for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// NearestRank reads the p-quantile from an already sorted sample with
// nearest-rank rounding: the estimator for latency percentiles, which
// must be observed values (no interpolation between two requests).
func NearestRank[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// quantileSorted reads the p-quantile (0 ≤ p ≤ 1) of a non-empty sorted
// sample with linear interpolation between order statistics: the
// Tukey fences' Q1 and Q3.
func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// IQROutliers returns the indices of values outside the Tukey fences
// [Q1-1.5·IQR, Q3+1.5·IQR], in input order. Degenerate vectors are
// handled the way a repetition report needs: n < 2 or all-equal
// vectors flag nothing (the fences collapse onto the data), and a
// single extreme value among otherwise-equal repetitions is flagged.
func IQROutliers(xs []float64) []int {
	if len(xs) < 2 {
		return nil
	}
	s := sortedCopy(xs)
	q1 := quantileSorted(s, 0.25)
	q3 := quantileSorted(s, 0.75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	var out []int
	for i, x := range xs {
		if x < lo || x > hi {
			out = append(out, i)
		}
	}
	return out
}

// Summarize computes the full repetition summary of one vector.
func Summarize(xs []float64) Stats {
	st := Stats{N: len(xs)}
	if len(xs) == 0 {
		return st
	}
	st.Mean = Mean(xs)
	st.Median = Median(xs)
	st.StdDev = StdDev(xs)
	if st.Mean != 0 {
		st.CV = st.StdDev / st.Mean
	}
	st.Min, st.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Outliers = IQROutliers(xs)
	return st
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
