package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
)

func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	lines := commandLines()
	for _, c := range commandTable() {
		if seen[c.name] {
			t.Errorf("command %q appears twice", c.name)
		}
		seen[c.name] = true
		if c.help == "" || c.run == nil {
			t.Errorf("command %q lacks help or run", c.name)
		}
		if !slices.Contains(lines, strings.TrimSpace(c.name+" "+c.args)) {
			t.Errorf("usage does not name %q", c.name)
		}
		switch c.name {
		case "loadtest": // one form: the paper's load test of one cell
			if c.min != 3 || strings.ContainsAny(c.args, "|-") {
				t.Errorf("loadtest takes %q (min %d), want exactly <platform> <algorithm> <dataset>", c.args, c.min)
			}
		case "bench": // one form: record a suite; nothing re-measures committed files
			if c.args != "<suite> <before|after> [file]" || c.min != 2 || strings.Contains(c.help, "check") {
				t.Errorf("bench takes %q (min %d, help %q), want exactly <suite> <before|after> [file]", c.args, c.min, c.help)
			}
			var suites []string
			for _, s := range perf.Registry {
				suites = append(suites, s.Name)
			}
			if list := "(" + strings.Join(suites, " ") + ")"; !strings.Contains(c.help, list) {
				t.Errorf("bench help %q does not list the suites as %s", c.help, list)
			}
		case "stream": // the serving load test lives here
			for _, flag := range []string{"-mix", "-users", "-duration", "-think", "-reads", "-chaos"} {
				if !strings.Contains(c.args, flag) {
					t.Errorf("stream synopsis %q does not name %s", c.args, flag)
				}
			}
		}
	}
	for _, gone := range []string{"bench-baseline", "bench-ingest", "bench-partition", "bench-gap", "bench-serve", "bench-check"} {
		if seen[gone] {
			t.Errorf("old verb %q is still a command", gone)
		}
	}
}

// TestPackageCommentListsCommands keeps the verb list in the package
// comment equal to what usage prints: paste `graphbench`'s command
// block there after changing the table.
func TestPackageCommentListsCommands(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var want strings.Builder
	for _, line := range commandLines() {
		want.WriteString("//\t" + line + "\n")
	}
	if !strings.Contains(doc, want.String()) {
		t.Fatalf("package comment is out of date; its command block should read:\n%s", want.String())
	}
}

// TestServeHTTPDrains is `graphbench serve` under SIGTERM (the signal
// is the context's cancellation): with a request in flight, the daemon
// stops accepting, lets the request finish, and returns nil — exit 0.
func TestServeHTTPDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	inFlight, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(inFlight)
		<-release
		io.WriteString(w, "answered")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveHTTP(ctx, ln, h, time.Minute) }()

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := client.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{string(body), err}
	}()

	<-inFlight
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serveHTTP returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Error("draining daemon still accepts connections")
	}
	close(release)
	if r := <-got; r.err != nil || r.body != "answered" {
		t.Fatalf("in-flight request got %q, %v; want it answered", r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("drained daemon returned %v, want nil", err)
	}
}

// processFixture is a Results with one cell per outcome class the
// paper reports: completed, crashed, terminated.
func processFixture() *experiment.Results {
	leg := func(sim float64, st metrics.Stats) []experiment.LegResult {
		return []experiment.LegResult{{Leg: experiment.LegWarm, SimSeconds: sim, Wall: st}}
	}
	cell := func(alg, ds string) experiment.Cell {
		return experiment.Cell{Platform: "Giraph", Algorithm: alg, Dataset: ds}
	}
	return &experiment.Results{
		Spec: experiment.Spec{Platforms: []string{"Giraph"}, Nodes: 20},
		Cells: []experiment.CellResult{
			{Cell: cell("BFS", "KGS"), Status: "ok", Validation: experiment.Valid,
				Legs: leg(29.1, metrics.Stats{N: 10, Mean: 12.5, Min: 12, Max: 13.5, CV: 0.04})},
			{Cell: cell("STATS", "WikiTalk"), Status: "crash", StatusDetail: "out of memory on computing node",
				Validation: experiment.Skipped, Legs: leg(0, metrics.Stats{N: 10})},
			{Cell: cell("STATS", "Citation"), Status: "timeout", StatusDetail: "exceeded the run budget",
				Validation: experiment.Skipped, Legs: leg(24000, metrics.Stats{N: 10})},
		},
	}
}

func TestExploreTable(t *testing.T) {
	out := exploreTable(processFixture()).String()
	for _, want := range []string{
		"Exploratory test: Giraph on 20 machines",
		"KGS       BFS        ok       VALID",
		"WikiTalk  STATS      crash    SKIPPED     out of memory on computing node",
		"Citation  STATS      timeout  SKIPPED     exceeded the run budget",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explore table lacks %q:\n%s", want, out)
		}
	}
}

func TestLoadSummary(t *testing.T) {
	cells := processFixture().Cells
	for i, want := range []string{
		"Giraph/BFS/KGS: T=29.1s, wall 12.50 ms (min 12.00, max 13.50, cv 4.0%, 10 reps, stable=true), VALID",
		"Giraph/STATS/WikiTalk: crash in all 10 reps (out of memory on computing node)",
		"Giraph/STATS/Citation: timeout in all 10 reps (exceeded the run budget)",
	} {
		if got := loadSummary(cells[i]); got != want {
			t.Errorf("loadSummary:\n got %q\nwant %q", got, want)
		}
	}
	noisy := cells[0]
	noisy.Legs[0].Wall.CV = 0.25
	if got := loadSummary(noisy); !strings.Contains(got, "stable=false") {
		t.Errorf("25%% CV reported stable: %q", got)
	}
}

// TestProcessViewsEndToEnd runs both process tests for real at a small
// scale: the exploratory matrix must surface the paper's Giraph
// crashes with a reason (and nothing INVALID), and a load test of a
// crashing cell must report the crash in every repetition.
func TestProcessViewsEndToEnd(t *testing.T) {
	e := &env{scale: 40, seed: 42, nodes: 20, cores: 1}
	res := runProcess(e, exploreSpec("Giraph"))
	if res.TotalCells != 42 || res.InvalidCells != 0 { // 7 datasets x 6 algorithms
		t.Fatalf("explore: %s", res.Summary())
	}
	status := map[string]experiment.CellResult{}
	for _, c := range res.Cells {
		status[c.Dataset+"/"+c.Algorithm] = c
	}
	if c := status["WikiTalk/STATS"]; c.Status != "crash" || c.StatusDetail == "" || c.Validation != experiment.Skipped {
		t.Errorf("WikiTalk/STATS = %+v, want a crash with a reason", c)
	}
	if c := status["Friendster/EVO"]; c.Status != "ok" || c.Validation != experiment.Valid {
		t.Errorf("Friendster/EVO = %+v, want ok and VALID", c)
	}

	spec := loadtestSpec("Giraph", "STATS", "WikiTalk")
	spec.Repetitions = 3
	got := loadSummary(runProcess(e, spec).Cells[0])
	if !strings.HasPrefix(got, "Giraph/STATS/WikiTalk: crash in all 3 reps (pregel: superstep 0 send buffer") {
		t.Errorf("load test of a crashing cell: %q", got)
	}
}

// TestExperimentWritesTrace is `graphbench -trace t.json -metrics
// m.json experiment spec.json`: the command returns its exit status
// instead of exiting, so main still writes both files, and the trace
// holds the engine spans of the spec's cells.
func TestExperimentWritesTrace(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "one.json")
	if err := os.WriteFile(spec, []byte(`{"name": "one", "platforms": ["Giraph"], "algorithms": ["BFS"],
		"datasets": ["DotaLeague"], "repetitions": 1, "cold_repetitions": 0,
		"scale": 40, "seed": 42, "nodes": 4, "cores": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e := &env{render: bench.Table.String, sess: obs.NewSession(obs.Options{})}
	if status := experimentCmd(e, []string{"-out", filepath.Join(dir, "bundle"), spec}); status != 0 {
		t.Fatalf("experiment exit status = %d, want 0", status)
	}
	traceOut, metricsOut := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	e.writeSession(traceOut, metricsOut)

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	runs := 0
	for _, ev := range trace.TraceEvents {
		if ev.Cat == obs.KindRun.String() {
			runs++
		}
	}
	if runs == 0 {
		t.Fatalf("trace has no engine run span among %d events", len(trace.TraceEvents))
	}
	raw, err = os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("metrics file is not JSON")
	}
}
