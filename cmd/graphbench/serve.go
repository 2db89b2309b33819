// Serving-daemon subcommand: `graphbench serve` keeps GCSR snapshots
// resident and answers point queries over HTTP with batched
// multi-source BFS sweeps, until SIGINT/SIGTERM drains it. Its load
// driver is `graphbench stream` (stream.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// writeSlack is what an answer may take beyond the per-query
	// deadline (compaction, encoding) before its connection is cut.
	writeSlack = 30 * time.Second
	// shutdownTimeout bounds the drain: in-flight requests that outlast
	// it are cut and the daemon exits non-zero.
	shutdownTimeout = 10 * time.Second
)

// serveCmd runs the HTTP graph-serving daemon until SIGINT or SIGTERM,
// then stops accepting, lets in-flight requests and sweeps finish, and
// returns so the process exits 0.
func serveCmd(args []string, cacheDir string, sess *obs.Session) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8090", "listen address")
	datasets := fs.String("datasets", "DotaLeague", "comma-separated datasets to keep resident")
	scale := fs.Int("scale", 8, "down-scaling factor for the resident datasets")
	seed := fs.Int64("seed", 42, "generation seed")
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
		QueueDepth:   *queue,
		QueryTimeout: *timeout,
		Obs:          sess,
	})
	if err != nil {
		fatal("serve: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serve: %s resident, listening on http://%s\n",
		strings.Join(srv.Datasets(), ", "), ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveHTTP(ctx, ln, srv.Handler(), srv.Config().QueryTimeout+writeSlack); err != nil {
		fatal("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "serve: drained, shutting down")
}

// serveHTTP answers on ln until ctx is done, then drains: no new
// connections, in-flight requests get shutdownTimeout to finish.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, writeTimeout time.Duration) error {
	// A client may not hold a connection by trickling its request,
	// never reading its answer, or idling on keep-alive.
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return nil
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
