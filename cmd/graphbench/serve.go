// Serving-daemon subcommands: `graphbench serve` keeps GCSR snapshots
// resident and answers point queries over HTTP with batched
// multi-source BFS sweeps; `graphbench loadtest -users N ...` drives
// an in-process server with a closed-loop user fleet and reports
// sustained QPS and latency percentiles.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// serveCmd runs the HTTP graph-serving daemon until the process is
// killed.
func serveCmd(args []string, cacheDir string, sess *obs.Session) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8090", "listen address")
	datasets := fs.String("datasets", "DotaLeague", "comma-separated datasets to keep resident")
	scale := fs.Int("scale", 8, "down-scaling factor for the resident datasets")
	seed := fs.Int64("seed", 42, "generation seed")
	window := fs.Duration("window", 0, "batching window (0 = default 100µs)")
	queue := fs.Int("queue", 0, "admission-control queue depth (0 = default 1024)")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = default 200ms)")
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	fs.Parse(args)

	srv, err := serve.New(serve.Config{
		Datasets:     splitList(*datasets),
		Scale:        *scale,
		Seed:         *seed,
		CacheDir:     cacheDir,
		Workers:      *workers,
		BatchWindow:  *window,
		QueueDepth:   *queue,
		QueryTimeout: *timeout,
		Obs:          sess,
	})
	if err != nil {
		fatal("serve: %v", err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serve: %s resident, listening on http://%s\n",
		strings.Join(srv.Datasets(), ", "), *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fatal("serve: %v", err)
	}
}

// loadtestServeCmd spins up an in-process server and drives it with
// the configured user fleet.
func loadtestServeCmd(args []string, cacheDir string, sess *obs.Session) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	dataset := fs.String("dataset", "DotaLeague", "dataset to query")
	scale := fs.Int("scale", 8, "down-scaling factor of the resident dataset")
	seed := fs.Int64("seed", 42, "generation seed")
	users := fs.Int("users", 64, "concurrent closed-loop users")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive load")
	arrival := fs.String("arrival", "closed", "arrival process: closed or poisson")
	think := fs.Duration("think", time.Millisecond, "mean think time for poisson arrivals")
	mix := fs.String("mix", "bfs", "workload mix: bfs or mixed")
	loadSeed := fs.Int64("load-seed", 1, "seed of the query stream")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = default 200ms)")
	fs.Parse(args)

	srv, err := serve.New(serve.Config{
		Datasets:     []string{*dataset},
		Scale:        *scale,
		Seed:         *seed,
		CacheDir:     cacheDir,
		QueryTimeout: *timeout,
		Obs:          sess,
	})
	if err != nil {
		fatal("loadtest: %v", err)
	}
	defer srv.Close()
	rep, err := serve.RunLoad(srv, serve.LoadConfig{
		Dataset:   *dataset,
		Users:     *users,
		Duration:  *duration,
		Arrival:   *arrival,
		MeanThink: *think,
		Seed:      *loadSeed,
		Mix:       *mix,
	})
	if err != nil {
		fatal("loadtest: %v", err)
	}
	fmt.Println(rep)
	if st, err := srv.Stats(*dataset); err == nil {
		fmt.Printf("  cache     %d BFS trees resident\n", st.CacheEntries)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
