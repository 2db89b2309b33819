package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiment"
)

// experimentDiffCmd compares two report bundles' results.json files:
// `graphbench experiment-diff a/results.json b/results.json`. Exits
// non-zero when a cell's status or validation changed, or a projected
// job time moved beyond the noise allowance either bundle recorded
// (max of the two wall-clock CVs, floor 1%).
func experimentDiffCmd(aPath, bPath string) {
	a, err := experiment.LoadResults(aPath)
	if err != nil {
		fatal("%v", err)
	}
	b, err := experiment.LoadResults(bPath)
	if err != nil {
		fatal("%v", err)
	}
	rep := experiment.DiffResults(a, b)
	rep.PathA, rep.PathB = aPath, bPath
	fmt.Print(rep)
	if rep.Flagged() {
		fatal("experiment-diff: results moved beyond recorded noise")
	}
}

// experimentCmd runs `graphbench experiment <spec.json|dir> ...`: load
// every spec, execute its run matrix with n-repetition statistics and
// output validation, write one report bundle per spec, and exit
// non-zero if any cell is INVALID or any leg breaches the CV ceiling.
func experimentCmd(e *env, args []string) {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: graphbench [flags] experiment [-out DIR] [-reps N] [-cold-reps N] [-max-cv X] <spec.json|dir> ...

Runs each experiment spec's platform × algorithm × dataset × placement
matrix with repeated measurements (separate cold and warm legs),
validates every cell's output against the sequential references, and
writes a report bundle (results.json, tables, figure data, environment
fingerprint) per spec. Exit status is non-zero when any cell fails
validation or any leg's wall-clock CV exceeds the spec's cv_ceiling.`)
		fs.PrintDefaults()
	}
	out := fs.String("out", "", "bundle directory (default experiment-<name> per spec; with several specs, a subdirectory per spec)")
	reps := fs.Int("reps", 0, "override the spec's warm repetition count (0 keeps the spec)")
	coldReps := fs.Int("cold-reps", -1, "override the spec's cold repetition count (-1 keeps the spec)")
	maxCV := fs.Float64("max-cv", -1, "override the spec's cv_ceiling (-1 keeps the spec)")

	// Accept flags before or after the spec paths, so both
	// `experiment -reps 3 spec.json` and `experiment spec.json -reps 3`
	// work.
	var paths []string
	rest := args
	for {
		fs.Parse(rest)
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		paths = append(paths, rest[0])
		rest = rest[1:]
	}
	if len(paths) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	var specs []*experiment.Spec
	for _, p := range paths {
		loaded, err := experiment.LoadAll(p)
		if err != nil {
			fatal("experiment: %v", err)
		}
		specs = append(specs, loaded...)
	}

	exit := 0
	for _, spec := range specs {
		if *reps > 0 {
			spec.Repetitions = *reps
		}
		if *coldReps >= 0 {
			spec.ColdRepetitions = *coldReps
		}
		if *maxCV >= 0 {
			spec.CVCeiling = *maxCV
		}
		dir := experiment.DefaultBundleDir(spec)
		if *out != "" {
			if len(specs) == 1 {
				dir = *out
			} else {
				dir = filepath.Join(*out, experiment.DefaultBundleDir(spec))
			}
		}
		d := &experiment.Driver{Spec: *spec, CacheDir: e.cache, Log: os.Stderr}
		res, err := d.Run()
		if err != nil {
			fatal("experiment: %v", err)
		}
		if err := res.WriteBundle(dir); err != nil {
			fatal("experiment: writing bundle: %v", err)
		}
		e.emit(res.Table())
		fmt.Println(res.Summary())
		fmt.Printf("bundle: %s\n", dir)
		if res.Failed() {
			exit = 1
		}
	}
	os.Exit(exit)
}
