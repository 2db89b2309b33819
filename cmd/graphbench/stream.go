// Streaming subcommand: `graphbench stream` drives an in-process
// serving daemon with the closed-loop user fleet (internal/serve) —
// one row per read/write mix over a seeded update stream, each with
// QPS, read-latency percentiles, the torn-epoch count and the verdict
// that the final evolved graph is byte-identical to a clean sequential
// replay. `-mix 100/0 -users N -duration D [-think T]` is the serving
// load test. With -chaos the stream is instead replayed through the
// deterministic lossy transport (drops, duplicates, reordering) for
// each seed, proving exactly-once application end to end.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// streamCmd runs the fleet sweep (or its chaos form) and exits
// non-zero unless every row MATCHes the clean replay with no torn
// epoch and no failed operation.
func streamCmd(args []string, cacheDir string, sess *obs.Session) {
	def := serve.DefaultStreamConfig()
	var defMixes []string
	for _, m := range def.Mixes {
		defMixes = append(defMixes, m.String())
	}
	cfg := serve.StreamConfig{CacheDir: cacheDir, Obs: sess}
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	fs.StringVar(&cfg.Dataset, "dataset", def.Dataset, "dataset to evolve")
	fs.IntVar(&cfg.Scale, "scale", def.Scale, "down-scaling factor of the resident dataset")
	fs.Int64Var(&cfg.Seed, "seed", def.Seed, "generation seed (also seeds the update stream and the users)")
	mixes := fs.String("mix", strings.Join(defMixes, ","), "comma-separated read/write percentage mixes (100/0: read-only load test)")
	fs.IntVar(&cfg.Users, "users", def.Users, "concurrent closed-loop users per mix")
	fs.IntVar(&cfg.OpsPerUser, "ops", def.OpsPerUser, "operations per user")
	fs.DurationVar(&cfg.Duration, "duration", 0, "run each mix for this long instead of -ops operations per user")
	fs.DurationVar(&cfg.Think, "think", 0, "mean exponential think time between a user's operations (0 = back-to-back)")
	fs.IntVar(&cfg.Batches, "batches", def.Batches, "update batches in the stream")
	fs.IntVar(&cfg.BatchSize, "batch-size", def.BatchSize, "edge operations per batch")
	fs.IntVar(&cfg.CompactEvery, "compact-every", def.CompactEvery, "compact after this many applied batches (<0 disables)")
	chaos := fs.Bool("chaos", false, "replay the stream through the lossy transport instead of the user fleet")
	chaosSeeds := fs.String("chaos-seeds", "1,2,3", "comma-separated fault-plan seeds for -chaos")
	fs.Parse(args)
	cfg.Mixes = parseMixes(*mixes)

	var rep *serve.StreamReport
	var err error
	if *chaos {
		rep, err = serve.RunStreamChaos(cfg, parseSeeds(*chaosSeeds))
	} else {
		rep, err = serve.RunStream(cfg)
	}
	if err != nil {
		fatal("stream: %v", err)
	}
	fmt.Print(rep)
	if !rep.Ok() {
		fatal("stream: a row failed the gate (MATCH, no torn epoch, no failed operation, faults injected under -chaos)")
	}
}

// parseMixes turns "90/10,70/30" into StreamMix values.
func parseMixes(s string) []serve.StreamMix {
	var out []serve.StreamMix
	for _, part := range splitList(s) {
		r, w, ok := strings.Cut(part, "/")
		if !ok {
			fatal("stream: mix %q is not of the form READ/WRITE", part)
		}
		read, err1 := strconv.Atoi(strings.TrimSpace(r))
		write, err2 := strconv.Atoi(strings.TrimSpace(w))
		if err1 != nil || err2 != nil {
			fatal("stream: mix %q is not numeric", part)
		}
		out = append(out, serve.StreamMix{Read: read, Write: write})
	}
	return out
}

// parseSeeds turns "1,2,3" into fault-plan seeds.
func parseSeeds(s string) []int64 {
	var out []int64
	for _, part := range splitList(s) {
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			fatal("stream: bad seed %q", part)
		}
		out = append(out, n)
	}
	return out
}
