package main

import (
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	cases := []struct {
		d         metricDef
		base, cur []float64
		want      string
	}{
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.05, 1.04, 1.06}, "within"},
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, "worse"},
		{lower, []float64{1.00, 1.01, 0.99}, []float64{0.50, 0.51, 0.49}, "within"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{130, 131, 129}, "within"},
		// Spread wider than the bound: the medians cannot say…
		{lower, []float64{1.0, 1.4, 0.7, 1.2, 0.8}, []float64{1.1, 1.5, 0.8, 1.3, 0.9}, "unresolved"},
		// …unless every new run beats every base run.
		{lower, []float64{1.0, 1.4, 0.7, 1.2, 0.8}, []float64{0.5, 0.6, 0.4, 0.55, 0.45}, "within"},
	}
	for i, c := range cases {
		if _, got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	base := func() *resultsDoc {
		return &resultsDoc{Seed: 1, GOMAXPROCS: 2, Seconds: 16, Workloads: []workloadResults{
			{Name: "stream-rw", Definition: "abc", Datasets: []string{"DotaLeague_f8_s1_g1_b2.gcsr"}},
		}}
	}
	if err := comparable(base(), base()); err != nil {
		t.Fatalf("identical conditions refused: %v", err)
	}
	for what, change := range map[string]func(*resultsDoc){
		"seeds":      func(d *resultsDoc) { d.Seed = 2 },
		"GOMAXPROCS": func(d *resultsDoc) { d.GOMAXPROCS = 4 },
		"defined":    func(d *resultsDoc) { d.Workloads[0].Definition = "xyz" },
		"datasets":   func(d *resultsDoc) { d.Workloads[0].Datasets = []string{"DotaLeague_f8_s1_g2_b2.gcsr"} },
	} {
		other := base()
		change(other)
		if err := comparable(base(), other); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("changing %s: got %v, want a refusal naming it", what, err)
		}
	}
}
