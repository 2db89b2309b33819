package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// p99Window is the sample count of one window of the windowed-p99
// estimator: 1000 samples leave ten beyond the 99th percentile.
const p99Window = 1000

// windowedP99 is the median over consecutive windows of `window`
// samples (in arrival order) of each window's p99, with the number of
// windows: one scheduler stall lands in one window and so cannot set
// the estimate. Windows are cut as by windowPercentiles.
func windowedP99(xs []float64, window int) (p99 float64, windows int) {
	if len(xs) == 0 {
		return 0, 0
	}
	per := windowPercentiles(xs, window, 99)
	return median(per), len(per)
}

// The box this benchmark runs on is shared: for seconds at a time
// everything runs tens of percent slower, and a run that reports the
// plain median of all its samples inherits whatever share of it was
// disturbed (measured: run-to-run spread of 14 % on a median latency,
// 12 % on a closed-loop rate). Interference only ever takes time away,
// so every timing metric is computed per window — a stretch of
// consecutive samples or of wall-clock — and the run reports a
// quantile of the windows on the better side: the first quartile of
// the latency windows, the 95th percentile of the rate windows. A
// closed loop keeps a processor busy, so its rate follows the host's
// speed one to one, and the host is slow for more than half of some
// runs (measured on serve-cold-batch, twelve runs of 8 s: median window
// 1 428–2 044 qps, third quartile of 250 ms windows 1 588–2 104, ninth
// decile 1 728–2 144, 95th percentile of 100 ms windows 2 010–2 180);
// an open-loop latency is part waiting that the host's speed does not
// stretch, and its first quartile repeats to 3–5 %. A change in the
// program moves every window, and the reported quantile with them.

// latencyWindow is the sample count of one window of the latency
// estimator.
const latencyWindow = 250

// rateWindow is the width of one window of the rate estimator.
const rateWindow = 100 * time.Millisecond

// windowPercentiles cuts xs (in arrival order) into consecutive
// windows of `window` samples and returns each window's p-th
// percentile; a trailing partial window is dropped, fewer samples than
// one window form a single window.
func windowPercentiles(xs []float64, window int, p float64) []float64 {
	if len(xs) < window {
		return []float64{percentile(xs, p)}
	}
	var per []float64
	for lo := 0; lo+window <= len(xs); lo += window {
		per = append(per, percentile(xs[lo:lo+window], p))
	}
	return per
}

// windowRates counts the completion instants `at` (offsets from the
// phase start) per window of width w over the whole windows of
// [0, total) and returns each window's completions per second.
func windowRates(at []time.Duration, w, total time.Duration) []float64 {
	n := int(total / w)
	if n < 1 {
		return []float64{float64(len(at)) / total.Seconds()}
	}
	counts := make([]float64, n)
	for _, t := range at {
		if i := int(t / w); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

// betterQuartileLatency is the first quartile of the per-window
// median latencies.
func betterQuartileLatency(lat []float64) float64 {
	return percentile(windowPercentiles(lat, latencyWindow, 50), 25)
}

// bestWindowsRate is the 95th percentile of per-window rates: of the
// 80 windows of an eight-second phase, the fifth best.
func bestWindowsRate(rates []float64) float64 { return percentile(rates, 95) }

// iqrShare is the distance between the first and third quartile of xs
// as a share of the median — the spread the acceptance rule uses.
// Quartiles follow Python's statistics.quantiles(xs, n=4) (exclusive
// method), so the number matches what the driver computes.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts latencies to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
