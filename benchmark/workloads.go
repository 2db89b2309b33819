package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames fixes the order workloads run and print in; it matches
// BENCHMARK.json.
var workloadNames = []string{"batch-graph", "batch-generic", "serve-hot-http", "serve-cold-batch", "stream-rw"}

// datasetSeed generates every dataset. The graphs are the workloads'
// corpus, fixed like the paper's datasets: across generator seeds the
// same profile's per-query cost differs by tens of percent (measured:
// closed-loop capacity of serve-cold-batch 1294–2030 qps over seeds
// 1–10), which would bury any change in the program. The run's -seed
// drives everything sent AT the corpus: traversal sources, algorithm
// parameters, query and permutation sequences, update streams.
const datasetSeed = 42

// datasetRef names one generated dataset: a datagen profile at an
// extra down-scaling factor, generated with datasetSeed.
type datasetRef struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
}

// workloadDef is one file of workloads/: everything that defines the
// workload except the seed. Fields a kind does not use stay zero.
type workloadDef struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // batch | serve | stream
	Why  string `json:"why"`

	// batch: the experiment matrix platforms × algorithms × datasets on
	// a simulated DAS-4 of Nodes machines with an explicit placement.
	// Cold cells re-read the graph from serialised text and rebuild the
	// placement inside the timed cell; warm cells run on the resident
	// graph. Expect lists the cells whose status is not "ok", keyed
	// "Platform/ALGORITHM/Dataset".
	Cold        bool              `json:"cold,omitempty"`
	Platforms   []string          `json:"platforms,omitempty"`
	Algorithms  []string          `json:"algorithms,omitempty"`
	Datasets    []datasetRef      `json:"datasets,omitempty"`
	Nodes       int               `json:"nodes,omitempty"`
	Partitioner string            `json:"partitioner,omitempty"`
	Shards      int               `json:"shards,omitempty"`
	Expect      map[string]string `json:"expect,omitempty"`

	// serve and stream: one resident dataset behind internal/serve.
	Dataset         datasetRef `json:"dataset,omitempty"`
	ResultCacheSize int        `json:"result_cache_size,omitempty"` // 0: the server's default
	// Transport is "http" (loopback listener, nproc keep-alive
	// connections) or "inproc" (goroutines calling Server.BFS).
	Transport string `json:"transport,omitempty"`
	// Sources is "uniform" (seeded uniform draws: the working set is
	// every vertex) or "permutation" (walk a seeded permutation of all
	// vertices, so a source repeats only after every other one).
	Sources string `json:"sources,omitempty"`
	// WorkingSet is how many distinct sources the plan draws from (a
	// seeded sample of the vertices); 0 means every vertex.
	WorkingSet    int     `json:"working_set,omitempty"`
	Warm          bool    `json:"warm,omitempty"`           // query every source once in set-up
	OpenQPS       float64 `json:"open_qps,omitempty"`       // phase A offered rate
	ClosedClients int     `json:"closed_clients,omitempty"` // phase B callers; 0: nproc connections

	// stream: one writer and one reader connection.
	WriteBatchesPerS float64 `json:"write_batches_per_s,omitempty"`
	BatchOps         int     `json:"batch_ops,omitempty"`
	DeleteFrac       float64 `json:"delete_frac,omitempty"`
	ReadBFSPerS      float64 `json:"read_bfs_per_s,omitempty"`
	ReadCompPerS     float64 `json:"read_component_per_s,omitempty"`
	CompactEvery     int     `json:"compact_every,omitempty"`
	// ClosedBatches is the closed-loop phase's fixed work: the writer
	// applies this many batches back to back.
	ClosedBatches int `json:"closed_batches,omitempty"`

	// hash identifies the definition in results files.
	hash string
}

func loadWorkload(name string) (*workloadDef, error) {
	raw, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var def workloadDef
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	if def.Name != name {
		return nil, fmt.Errorf("workloads/%s.json names workload %q", name, def.Name)
	}
	sum := sha256.Sum256(raw)
	def.hash = hex.EncodeToString(sum[:8])
	return &def, nil
}

// runOpts is what the command line decides about one run.
type runOpts struct {
	seed    int64
	seconds time.Duration // length of the timed phases together
	trace   bool          // traced run: per-layer metrics
	smoke   bool          // shrink everything so a run takes about a second
	// traceOut, when non-empty, receives the traced run's spans as
	// Chrome trace_event JSON.
	traceOut string
	log      io.Writer // progress and tables for a human
}

// duration is the length of the timed phases: the run's seconds, or
// one second in smoke mode.
func (o runOpts) duration() time.Duration {
	if o.smoke {
		return time.Second
	}
	return o.seconds
}

// setupOnce reports whether a run sets its workload up a single time
// (traced and smoke runs, which do not report setup_s).
func (o runOpts) setupOnce() bool { return o.trace || o.smoke }

// runWorkload executes one workload and returns its result: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.
func runWorkload(def *workloadDef, o runOpts) (result, error) {
	var (
		m                 measured
		attempted, failed int
		err               error
	)
	switch def.Kind {
	case "batch":
		m, attempted, failed, err = runBatch(def, o)
	case "serve":
		m, attempted, failed, err = runServe(def, o)
	case "stream":
		m, attempted, failed, err = runStream(def, o)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", def.Name, def.Kind)
	}
	if err != nil {
		return result{}, fmt.Errorf("workload %s: %w", def.Name, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if attempted > 0 {
			m["failed_share"] = float64(failed) / float64(attempted)
		}
	} else {
		m["peak_rss_mb"] = peakRSSMB()
	}
	return m.finish(defs, attempted, failed), nil
}

// Set-up repeats within a run so that setup_s is a median and one
// slow start (cold page cache, a GC cycle) does not set it: at least
// minSetups times, then on until setupBudget is spent or maxSetups is
// reached, so a set-up of a tenth of a second — where a single GC
// cycle is a fifth of the reading — gets the most samples.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 2 * time.Second
)

// medianSetup builds the workload's environment repeatedly (once when
// once is set), discarding every build but the last, and returns that
// one with the median build time in seconds.
func medianSetup[T any](once bool, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		env   T
		times []float64
		total time.Duration
	)
	for i := 0; i < maxSetups; i++ {
		if i > 0 {
			discard(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		env = e
		if once || (i+1 >= minSetups && total >= setupBudget) {
			break
		}
	}
	return env, median(times), nil
}
