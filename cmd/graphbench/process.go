// The paper's evaluation process (Section 2.1) as views over the
// experiment driver: `explore <platform>` is the exploratory test (can
// the platform perform each task at all — every algorithm on every
// dataset, once) and `loadtest <platform> <algorithm> <dataset>` the
// load test (one cell repeated 10 times, "report the average", with
// the dispersion the paper bounds at 10%). Both build a spec in code
// and print its Results, so every OK cell is reference-validated.
// Capacity tests are Figures 11-14.
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/experiment"
	"repro/internal/platform"
)

// runProcess executes a warm-leg-only spec on the cluster the global
// flags describe.
func runProcess(e *env, spec experiment.Spec) *experiment.Results {
	spec.Scale, spec.Seed, spec.Nodes, spec.Cores = e.scale, e.seed, e.nodes, e.cores
	d := &experiment.Driver{Spec: spec, CacheDir: e.cache, Obs: e.sess}
	res, err := d.Run()
	if err != nil {
		fatal("%v", err)
	}
	return res
}

// exploreSpec is the exploratory test: the full algorithm x dataset
// matrix of one platform, each cell once.
func exploreSpec(platformName string) experiment.Spec {
	return experiment.Spec{
		Name:      "explore-" + platformName,
		Platforms: []string{platformName}, Algorithms: platform.Algorithms(), Datasets: datagen.Names(),
		Repetitions: 1,
	}
}

// loadtestSpec is the load test: one cell at the paper's 10
// repetitions.
func loadtestSpec(platformName, alg, dataset string) experiment.Spec {
	return experiment.Spec{
		Name:      "loadtest",
		Platforms: []string{platformName}, Algorithms: []string{alg}, Datasets: []string{dataset},
		Repetitions: 10,
	}
}

func exploreCmd(e *env, a []string) {
	res := runProcess(e, exploreSpec(a[0]))
	e.emit(exploreTable(res))
	if res.Failed() {
		fatal("explore: %s", res.Summary())
	}
}

// exploreTable is the crash matrix of Sections 4.1.2-4.1.3 for one
// platform: whether each task completed, and why not.
func exploreTable(res *experiment.Results) bench.Table {
	t := bench.Table{
		Title:  fmt.Sprintf("Exploratory test: %s on %d machines", res.Spec.Platforms[0], res.Spec.Nodes),
		Header: []string{"Dataset", "Algorithm", "Status", "Validation", "Reason"},
	}
	for _, c := range res.Cells {
		reason := c.StatusDetail
		if c.Validation == experiment.Invalid {
			reason = c.ValidationDetail
		}
		t.Rows = append(t.Rows, []string{c.Dataset, c.Algorithm, c.Status, c.Validation, reason})
	}
	return t
}

func loadtestCmd(e *env, a []string) {
	res := runProcess(e, loadtestSpec(a[0], a[1], a[2]))
	fmt.Println(loadSummary(res.Cells[0]))
	if res.Failed() {
		fatal("loadtest: %s", res.Summary())
	}
}

// loadSummary is the one-line load-test report: the projected job time
// T (deterministic given the seed) and the wall-clock dispersion of
// the repetitions, stable when the CV stays within the paper's
// observed bound ("the largest variance [is] 10%").
func loadSummary(c experiment.CellResult) string {
	s := fmt.Sprintf("%s/%s/%s: ", c.Platform, c.Algorithm, c.Dataset)
	if len(c.Legs) == 0 {
		return s + c.Validation + " (" + c.ValidationDetail + ")"
	}
	l := c.Legs[len(c.Legs)-1]
	if c.Status != platform.OK.String() {
		return s + fmt.Sprintf("%s in all %d reps (%s)", c.Status, l.Wall.N, c.StatusDetail)
	}
	return s + fmt.Sprintf("T=%.1fs, wall %.2f ms (min %.2f, max %.2f, cv %.1f%%, %d reps, stable=%v), %s",
		l.SimSeconds, l.Wall.Mean, l.Wall.Min, l.Wall.Max, 100*l.Wall.CV, l.Wall.N,
		l.Wall.CV <= 0.10, c.Validation)
}
