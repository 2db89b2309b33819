// Command benchmark is graphbench's one claim benchmark: five
// workloads over the batch, serving and streaming paths, each
// end-to-end number decomposed by module. See README.md.
//
//	benchmark -workload <name> -seed N -seconds S -trace 0|1
//	benchmark -workload all [-runs R] [-out results.json]
//	benchmark -compare base.json new.json
//
// A single-workload run prints every metric by name with its unit,
// then one JSON object as its last line (see BENCHMARK.json at the
// repository root for the contract), and exits non-zero when any
// output failed verification.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/datagen"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 16

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames)+", or all")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Int("seconds", defaultSeconds, "length of the timed phases of one run")
		trace    = fs.String("trace", "", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics (default 0; with -workload all, both)")
		smoke    = fs.Bool("smoke", false, "shrink every workload to about a second, all verification on")
		out      = fs.String("out", "", "write the results document (JSON) to this file")
		traceOut = fs.String("trace-out", "", "write the traced run's spans as Chrome trace_event JSON to this file")
		runs     = fs.Int("runs", 1, "with -workload all: runs per workload, so -compare can see the spread")
		compare  = fs.Bool("compare", false, "compare two results documents: -compare base.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		return fail(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}

	if *workload == "all" {
		doc, ok, err := runAll(stdout, stderr, *seed, *seconds, *trace, *smoke, *runs)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeDoc(*out, doc); err != nil {
				return fail(err)
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	def, err := loadWorkload(*workload)
	if err != nil {
		return fail(err)
	}
	o := runOpts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == "1", smoke: *smoke, traceOut: *traceOut, log: stdout,
	}
	fmt.Fprintf(stdout, "workload %s (%s) seed %d seconds %d trace %v GOMAXPROCS %d of %d CPUs\n",
		def.Name, def.hash, o.seed, *seconds, o.trace, procs(), runtime.NumCPU())
	res, err := runWorkload(def, o)
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if *out != "" {
		doc := newDoc(*seed, *seconds, *smoke)
		doc.Workloads = []workloadResults{{Name: def.Name, Definition: def.hash, Datasets: datasetKeys(def), Runs: []runRecord{{Trace: o.trace, result: res}}}}
		if err := writeDoc(*out, doc); err != nil {
			return fail(err)
		}
	}
	if err := res.print(stdout, defs); err != nil {
		return fail(err)
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed verification\n", def.Name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// resultsDoc is the results file -out writes and -compare reads: the
// recording conditions, then every run of every workload.
type resultsDoc struct {
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GitSHA     string            `json:"git_sha"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workloads  []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name string `json:"name"`
	// Definition is the hash of the workload's definition file.
	Definition string `json:"definition"`
	// Datasets are the datagen.SnapshotKeys of the generated inputs.
	Datasets []string    `json:"datasets"`
	Runs     []runRecord `json:"runs"`
}

type runRecord struct {
	Trace bool `json:"trace"`
	result
}

func newDoc(seed int64, seconds int, smoke bool) *resultsDoc {
	return &resultsDoc{
		GoVersion: runtime.Version(), CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		GitSHA: gitSHA(), Seed: seed, Seconds: seconds, Smoke: smoke,
	}
}

func datasetKeys(def *workloadDef) []string {
	refs := def.Datasets
	if def.Kind != "batch" {
		refs = []datasetRef{def.Dataset}
	}
	keys := make([]string, len(refs))
	for i, r := range refs {
		keys[i] = datagen.SnapshotKey(r.Name, r.Scale, datasetSeed)
	}
	return keys
}

func writeDoc(path string, doc *resultsDoc) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll re-executes this binary once per workload, run and trace
// mode: a fresh process gives every run its own set-up time and peak
// memory, with no heap carried over from the workload before.
func runAll(stdout, stderr io.Writer, seed int64, seconds int, trace string, smoke bool, runs int) (*resultsDoc, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	modes := []string{"0", "1"}
	if trace != "" {
		modes = []string{trace}
	}
	doc := newDoc(seed, seconds, smoke)
	allOK := true
	for _, name := range workloadNames {
		def, err := loadWorkload(name)
		if err != nil {
			return nil, false, err
		}
		wr := workloadResults{Name: name, Definition: def.hash, Datasets: datasetKeys(def)}
		for r := 0; r < runs; r++ {
			for _, mode := range modes {
				args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", mode}
				if smoke {
					args = append(args, "-smoke")
				}
				var buf bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout = io.MultiWriter(stdout, &buf)
				cmd.Stderr = stderr
				runErr := cmd.Run()
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
					return nil, false, fmt.Errorf("%s -trace %s printed no result (%v)", name, mode, runErr)
				}
				allOK = allOK && runErr == nil && res.Correct
				wr.Runs = append(wr.Runs, runRecord{Trace: mode == "1", result: res})
			}
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	return doc, allOK, nil
}
