// Command graphbench runs the paper's experiments and prints the
// corresponding tables and figures.
//
// Usage: graphbench [flags] <command> [arguments]
//
// The command list below is the one `graphbench` prints without
// arguments; both come from the command table in this file
// (TestPackageCommentListsCommands keeps them equal).
//
//	table <2-8>
//	    regenerate one table of the paper
//	figure <1-16|5-7|8-10> [dataset]
//	    regenerate one figure (dataset picks the panel of 11-14)
//	all
//	    every table and figure, then the key findings: report_full.txt
//	findings
//	    check the paper's ten key findings against live runs
//	run <platform> <algorithm> <dataset>
//	    one experiment: status, T, Tc/To, EPS/VPS
//	explore <platform>
//	    exploratory test: every algorithm x dataset once, validated
//	loadtest <platform> <algorithm> <dataset>
//	    load test: one cell x 10 repetitions
//	predict <platform> <algorithm> <dataset>
//	    worst-case boundary prediction without running
//	chaos <engine> [algorithm] [dataset]
//	    fault-injected run must match the fault-free run
//	curves <platform> [measured]
//	    100-point resource curves as CSV
//	partition-quality <dataset>
//	    static quality of every partitioning strategy
//	partition-study
//	    strategy x platform x dataset placement study
//	experiment [-out DIR -reps N] <spec|dir> ...
//	    run experiment specs into validated report bundles
//	experiment-diff <a/results.json> <b/...json>
//	    compare two report bundles cell by cell
//	serve [-addr HOST:PORT -datasets LIST]
//	    HTTP graph-serving daemon
//	stream [-mix 90/10,100/0 -users N -duration D -think T] [-chaos]
//	    closed-loop user fleet against an in-process serving daemon: read/write sweep over an evolving graph, 100/0 is the serving load test
//
// Flags (before the command) scale the datasets, size the cluster,
// pick a placement and write traces and profiles; `graphbench`
// without arguments lists them with their defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/boundary"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/platform"
)

// env is what a command runs with: the harness built from the global
// flags, and the flag values commands read directly.
type env struct {
	h      *bench.Harness
	sess   *obs.Session
	render func(bench.Table) string

	scale, nodes, cores, shards int
	seed, faultSeed             int64
	cache                       string
	// exit is the status main ends with once -trace and -metrics are
	// written; a command that fails without aborting sets it.
	exit int
}

func (e *env) hw() cluster.Hardware { return cluster.DAS4(e.nodes, e.cores) }

func (e *env) emit(ts ...bench.Table) {
	for _, t := range ts {
		fmt.Print(e.render(t))
	}
}

// command is one row of the command table.
type command struct {
	name string
	// args is the argument synopsis usage prints; min is how many
	// arguments the command needs before it can run.
	args string
	help string
	min  int
	run  func(e *env, args []string)
}

// commandTable is a function, not a variable: the commands call
// usage, which reads the table.
func commandTable() []command {
	return []command{
		{"table", "<2-8>", "regenerate one table of the paper", 1,
			func(e *env, a []string) { e.emitOrFatal(e.h.RenderTable(a[0])) }},
		{"figure", "<1-16|5-7|8-10> [dataset]", "regenerate one figure (dataset picks the panel of 11-14)", 1,
			func(e *env, a []string) {
				ds := "DotaLeague"
				if len(a) > 1 {
					ds = a[1]
					checkName("dataset", ds, datagen.Names())
				}
				e.emitOrFatal(e.h.RenderFigure(a[0], ds))
			}},
		{"all", "", "every table and figure, then the key findings: report_full.txt", 0,
			func(e *env, _ []string) { e.h.Report(os.Stdout, e.render) }},
		{"findings", "", "check the paper's ten key findings against live runs", 0,
			func(e *env, _ []string) { e.emit(e.h.FindingsTable()) }},
		{"run", "<platform> <algorithm> <dataset>", "one experiment: status, T, Tc/To, EPS/VPS", 3, runCmd},
		{"explore", "<platform>", "exploratory test: every algorithm x dataset once, validated", 1, exploreCmd},
		{"loadtest", "<platform> <algorithm> <dataset>", "load test: one cell x 10 repetitions", 3, loadtestCmd},
		{"predict", "<platform> <algorithm> <dataset>", "worst-case boundary prediction without running", 3, predictCmd},
		{"chaos", "<engine> [algorithm] [dataset]", "fault-injected run must match the fault-free run", 1, chaosCmd},
		{"curves", "<platform> [measured]", "100-point resource curves as CSV", 1, curvesCmd},
		{"partition-quality", "<dataset>", "static quality of every partitioning strategy", 1,
			func(e *env, a []string) {
				checkName("dataset", a[0], datagen.Names())
				n := e.shards
				if n <= 0 {
					n = e.nodes
				}
				e.emit(e.h.PartitionQuality(a[0], n))
			}},
		{"partition-study", "", "strategy x platform x dataset placement study", 0,
			func(e *env, _ []string) { e.emit(e.h.PartitionStudy(e.shards)) }},
		{"experiment", "[-out DIR -reps N] <spec|dir> ...", "run experiment specs into validated report bundles", 0,
			func(e *env, a []string) { e.exit = experimentCmd(e, a) }},
		{"experiment-diff", "<a/results.json> <b/...json>", "compare two report bundles cell by cell", 2,
			func(_ *env, a []string) { experimentDiffCmd(a[0], a[1]) }},
		{"serve", "[-addr HOST:PORT -datasets LIST]", "HTTP graph-serving daemon", 0,
			func(e *env, a []string) { serveCmd(a, e.cache, e.sess) }},
		{"stream", "[-mix 90/10,100/0 -users N -duration D -think T] [-chaos]",
			"closed-loop user fleet against an in-process serving daemon: read/write sweep over an evolving graph, 100/0 is the serving load test", 0,
			func(e *env, a []string) { streamCmd(a, e.cache, e.sess) }},
	}
}

// commandLines renders the table as the lines usage and the package
// comment share: synopsis on one line, help indented under it.
func commandLines() []string {
	var lines []string
	for _, c := range commandTable() {
		lines = append(lines, strings.TrimSpace(c.name+" "+c.args), "    "+c.help)
	}
	return lines
}

func main() {
	e := &env{render: bench.Table.String}
	flag.IntVar(&e.scale, "scale", 1, "extra dataset down-scaling factor")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	flag.Int64Var(&e.seed, "seed", 42, "generation seed")
	flag.IntVar(&e.nodes, "nodes", 20, "cluster size for run, chaos, explore, loadtest, predict")
	flag.IntVar(&e.cores, "cores", 1, "cores per node of the -nodes cluster")
	flag.StringVar(&e.cache, "cache", os.Getenv("GRAPHBENCH_CACHE"),
		"dataset snapshot cache directory (empty disables; default $GRAPHBENCH_CACHE)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the run's spans (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics", "", "write the run's counters, gauges, and resource samples as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the command (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write the command's allocation profile (go tool pprof)")
	flag.Int64Var(&e.faultSeed, "fault-seed", 1, "seed of the fault plan for chaos")
	partitioner := flag.String("partitioner", "", "placement strategy for distributed runs (hash range edgecut vertexcut grid; empty keeps engine defaults)")
	flag.IntVar(&e.shards, "shards", 0, "shard count for the placement (0 = node count)")
	flag.Parse()

	if *traceOut != "" || *metricsOut != "" {
		e.sess = obs.NewSession(obs.Options{})
	}
	e.h = bench.New(bench.Config{Seed: e.seed, Scale: e.scale, CacheDir: e.cache, Obs: e.sess,
		Partitioner: *partitioner, Shards: e.shards})
	if *csv {
		e.render = bench.CSV
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var cmd *command
	for _, c := range commandTable() {
		if c.name == args[0] {
			cmd = &c
			break
		}
	}
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "graphbench: unknown command %q\n\n", args[0])
		usage()
	}
	if len(args)-1 < cmd.min {
		usage()
	}
	stopCPU := startCPUProfile(*cpuProfile)
	cmd.run(e, args[1:])
	stopCPU()
	if *memProfile != "" {
		writeFile(*memProfile, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
	}
	e.writeSession(*traceOut, *metricsOut)
	os.Exit(e.exit)
}

// startCPUProfile starts profiling the CPU into path, when set, and
// returns the function that stops it and closes the file.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal("%v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
	}
}

// writeSession closes the observability session, if the global flags
// opened one, and writes the -trace and -metrics files.
func (e *env) writeSession(traceOut, metricsOut string) {
	sess := e.sess
	if sess == nil {
		return
	}
	sess.Close()
	if traceOut != "" {
		writeFile(traceOut, sess.T().WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "trace: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", traceOut)
	}
	if metricsOut != "" {
		writeFile(metricsOut, sess.WriteMetricsJSON)
		fmt.Fprintf(os.Stderr, "metrics: wrote %s\n", metricsOut)
	}
}

func (e *env) emitOrFatal(ts []bench.Table, err error) {
	if err != nil {
		fatal("%v", err)
	}
	e.emit(ts...)
}

func runCmd(e *env, a []string) {
	checkCell(a[0], a[1], a[2])
	r := e.h.Run(a[0], a[1], a[2], e.hw())
	fmt.Printf("platform=%s algorithm=%s dataset=%s status=%s\n",
		r.Platform, r.Algorithm, r.Dataset, r.Status)
	if r.Status == platform.OK {
		fmt.Printf("T=%.1fs Tc=%.1fs To=%.1fs iterations=%d EPS=%.0f VPS=%.0f\n",
			r.Seconds, r.ComputeSeconds, r.OverheadSeconds, r.Iterations, r.EPS(), r.VPS())
	} else if r.Err != nil {
		fmt.Printf("reason: %v\n", r.Err)
	}
}

// chaosEngines maps the engine packages under chaos test to the
// platform that exercises them.
var chaosEngines = map[string]string{
	"pregel":    "Giraph",
	"mapreduce": "Hadoop",
	"yarn":      "YARN",
	"dataflow":  "Stratosphere",
	"gas":       "GraphLab",
}

func chaosCmd(e *env, a []string) {
	name, ok := chaosEngines[a[0]]
	if !ok {
		fatal("chaos: unknown engine %q (pregel mapreduce yarn dataflow gas)", a[0])
	}
	alg, ds := "BFS", "KGS"
	if len(a) > 1 {
		alg = a[1]
	}
	if len(a) > 2 {
		ds = a[2]
	}
	checkName("algorithm", alg, platform.Algorithms())
	checkName("dataset", ds, datagen.Names())
	rep := e.h.Chaos(name, alg, ds, e.hw(), fault.DefaultPlan(e.faultSeed))
	fmt.Print(rep)
	if rep.Err != nil {
		fatal("chaos: %v", rep.Err)
	}
	if !rep.Match {
		fatal("chaos: fault-injected output diverged from the fault-free run")
	}
	if rep.Injected == 0 {
		fatal("chaos: fault plan injected nothing (weak plan for this workload)")
	}
}

func curvesCmd(e *env, a []string) {
	checkName("platform", a[0], platformNames())
	var tr monitor.Trace
	if len(a) > 1 && a[1] == "measured" {
		tr = e.h.MeasuredCurves(a[0])
	} else {
		tr = e.h.Curves(a[0])
	}
	fmt.Printf("# platform=%s source=%s\n", tr.Platform, tr.Source)
	fmt.Println("point,master_cpu,master_mem_gb,master_net_mbps,compute_cpu,compute_mem_gb,compute_net_mbps")
	for i := 0; i < monitor.Points; i++ {
		fmt.Printf("%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n", i,
			tr.Master.CPU[i], tr.Master.MemGB[i], tr.Master.NetMbps[i],
			tr.Compute.CPU[i], tr.Compute.MemGB[i], tr.Compute.NetMbps[i])
	}
}

func predictCmd(e *env, a []string) {
	checkCell(a[0], a[1], a[2])
	prof, _ := datagen.ByName(a[2]) // checkCell has vetted the name
	in := boundary.MeasureInputs(e.h.Graph(a[2]), prof, e.scale)
	est, err := boundary.PredictFor(a[0], a[1], prof, in, e.hw())
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("worst-case T = %.1f s (%.2f h), iterations <= %d, msg bytes/iter <= %d\n",
		est.Seconds, est.Seconds/3600, est.Iterations, est.MsgBytes)
	switch {
	case est.Crash:
		fmt.Println("prediction: infeasible (out of memory)")
	case est.Timeout:
		fmt.Println("prediction: exceeds the run-time budget")
	default:
		fmt.Println("prediction: feasible")
	}
}

// writeFile creates path and streams one of the session exporters into
// it.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal("%v", err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
}

func usage() {
	w := os.Stderr
	fmt.Fprintf(w, "usage: graphbench [flags] <command> [arguments]\n\ncommands:\n")
	for _, line := range commandLines() {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(w, "\nplatforms:  %s\n", strings.Join(platformNames(), " "))
	fmt.Fprintf(w, "chaos engines: pregel mapreduce yarn dataflow gas\n")
	fmt.Fprintf(w, "algorithms: %s\n", strings.Join(platform.Algorithms(), " "))
	fmt.Fprintf(w, "datasets:   %s\n", strings.Join(datagen.Names(), " "))
	os.Exit(2)
}

// platformNames are the platforms run, curves and predict take: Table
// 4's six and GraphLab's multi-part loader variant.
func platformNames() []string { return append(bench.PlatformNames(), "GraphLab(mp)") }

// checkName exits 1 with a one-line error that lists the valid names
// when name is not one of them; the harness panics on an unknown name.
func checkName(kind, name string, valid []string) {
	if !slices.Contains(valid, name) {
		fatal("unknown %s %q (have %s)", kind, name, strings.Join(valid, " "))
	}
}

// checkCell is checkName over one cell's platform, algorithm and
// dataset.
func checkCell(platformName, alg, dataset string) {
	checkName("platform", platformName, platformNames())
	checkName("algorithm", alg, platform.Algorithms())
	checkName("dataset", dataset, datagen.Names())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
