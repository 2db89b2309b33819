package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload in -smoke mode, untraced and traced, with all output
// verification on: keeps the harness compiling and green in about ten
// seconds.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			def, err := loadWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(def, runOpts{seed: 3, seconds: time.Second, trace: trace, smoke: true, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", name, trace, d.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v.Value)
				}
			}
			if trace {
				checkPredictions(t, name, res)
			}
		}
	}
}

// checkPredictions pins the cross-workload predictions: the layers a
// workload bypasses report 0.
func checkPredictions(t *testing.T, name string, res result) {
	t.Helper()
	zero := func(metrics ...string) {
		for _, m := range metrics {
			if v := res.Metrics[m].Value; v != 0 {
				t.Errorf("%s: %s = %v, predicted 0", name, m, v)
			}
		}
	}
	positive := func(metrics ...string) {
		for _, m := range metrics {
			if v := res.Metrics[m].Value; v <= 0 {
				t.Errorf("%s: %s = %v, predicted > 0", name, m, v)
			}
		}
	}
	switch name {
	case "batch-graph":
		zero("mapreduce.run.ms", "mapreduce.jobs", "mapreduce.shuffle_bytes", "dataflow.run.ms", "yarn.run.ms", "serve.queries")
		positive("pregel.run.ms", "gas.run.ms", "graphdb.run.ms", "pregel.messages", "graph.read_text.ms", "partition.cut_arcs", "cluster.sim_seconds")
	case "batch-generic":
		zero("pregel.run.ms", "pregel.messages", "gas.run.ms", "gas.gather_edges", "graphdb.run.ms", "graph.read_text.ms")
		positive("mapreduce.run.ms", "yarn.run.ms", "dataflow.run.ms", "mapreduce.shuffle_bytes", "mapreduce.phase.map.ms", "dataflow.records")
	case "serve-hot-http":
		zero("serve.batches", "algo.bfs_diropt.us", "serve.overloads", "serve.deadlines")
		positive("serve.http.roundtrip_us", "serve.inproc.hit_us", "serve.queries")
		if v := res.Metrics["serve.cache.hit_ratio"].Value; v != 1 {
			t.Errorf("%s: cache hit ratio %v, predicted 1", name, v)
		}
	case "serve-cold-batch":
		zero("serve.http.roundtrip_us", "serve.overloads", "serve.deadlines")
		positive("serve.batches", "serve.batch.sweep_ms", "algo.bfs_multisource.l64.us", "algo.validate_bfs.us")
		if v := res.Metrics["serve.cache.hit_ratio"].Value; v > 0.02 {
			t.Errorf("%s: cache hit ratio %v, predicted ≤ 0.02", name, v)
		}
	case "stream-rw":
		positive("write_p50_ms", "comp_p50_ms", "evolve.submit.us", "evolve.compact.ms", "evolve.snapshot_bfs.ms", "serve.overlay_read_share", "serve.compactions")
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this package reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: declared %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
