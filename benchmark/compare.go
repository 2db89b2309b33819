package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// -compare: for every workload × end-to-end metric, the base median,
// the new median, their ratio with the base, the bound, and a verdict:
//
//	within      the new median is not worse than the base by more than
//	            the bound
//	worse       it is
//	unresolved  the run-to-run spread of either side (interquartile
//	            range over median) is wider than the bound, so the
//	            medians cannot say — unless every new run reads better
//	            than every base run
//
// Results recorded under different conditions are refused.

func loadDoc(path string) (*resultsDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// comparable reports why two documents cannot be compared, nil when
// they can.
func comparable(a, b *resultsDoc) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ (%d vs %d)", a.Seed, b.Seed)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs (%d vs %d)", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke:
		return fmt.Errorf("run lengths differ (%d s smoke=%v vs %d s smoke=%v)", a.Seconds, a.Smoke, b.Seconds, b.Smoke)
	}
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadResults) bool { return w.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		if wa.Definition != wb.Definition {
			return fmt.Errorf("workload %s is defined differently (%s vs %s)", wa.Name, wa.Definition, wb.Definition)
		}
		if !slices.Equal(wa.Datasets, wb.Datasets) {
			return fmt.Errorf("workload %s ran on different datasets (%v vs %v)", wa.Name, wa.Datasets, wb.Datasets)
		}
	}
	return nil
}

// values returns one metric's value in every untraced run.
func (w workloadResults) values(metric string) []float64 {
	var xs []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[metric]; ok && !r.Trace {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict judges one metric. worsening is the new median's change for
// the worse as a share of the base median (negative: better).
func verdict(d metricDef, base, cur []float64) (worsening float64, v string) {
	mb, mc := median(base), median(cur)
	if mb == 0 {
		return 0, "unresolved"
	}
	worsening = (mc - mb) / mb
	allBetter := slices.Min(cur) > slices.Max(base)
	if d.Better == "lower" {
		allBetter = slices.Max(cur) < slices.Min(base)
	} else {
		worsening = -worsening
	}
	switch {
	case max(iqrShare(base), iqrShare(cur)) > d.Bound && !allBetter:
		return worsening, "unresolved"
	case worsening > d.Bound:
		return worsening, "worse"
	}
	return worsening, "within"
}

// compareFiles prints the comparison and reports whether nothing was
// worse.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	a, err := loadDoc(basePath)
	if err != nil {
		return false, err
	}
	b, err := loadDoc(newPath)
	if err != nil {
		return false, err
	}
	if err := comparable(a, b); err != nil {
		return false, fmt.Errorf("refusing to compare %s with %s: %w", basePath, newPath, err)
	}
	fmt.Fprintf(w, "base %s (%s, %s)\nnew  %s (%s, %s)\n", basePath, a.GitSHA, a.CPUModel, newPath, b.GitSHA, b.CPUModel)
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	ok := true
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(x workloadResults) bool { return x.Name == wa.Name })
		if i < 0 {
			fmt.Fprintf(w, "%-18s missing from %s\n", wa.Name, newPath)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			base, cur := wa.values(d.Name), b.Workloads[i].values(d.Name)
			if len(base) == 0 || len(cur) == 0 {
				continue
			}
			_, v := verdict(d, base, cur)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %8.4f %6.2f  %s (n=%d,%d)\n",
				wa.Name, d.Name, median(base), median(cur), median(cur)/median(base), d.Bound, v, len(base), len(cur))
		}
	}
	return ok, nil
}
