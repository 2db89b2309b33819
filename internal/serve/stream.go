package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/graph"
)

// Streaming-update driver: N users issue a read/write mix against one
// evolving dataset — reads are epoch-tagged point queries, writes are
// seeded update-stream batches claimed from a shared sequencer (so
// batch submission order is racy on purpose and exercises the
// exactly-once reorder buffer). Each mix row runs on a fresh server.
//
// Two invariants are checked and reported per row:
//
//   - no torn epochs: every answer's epoch is one the dataset actually
//     reached at that moment (never ahead of the batches handed out,
//     never regressing within one user's session);
//   - MATCH: after the run drains and compacts, the served CSR is
//     byte-identical to applying the same batches cleanly in order —
//     racing writers, buffered reorders and mid-run compactions must
//     leave no trace.

// StreamMix is one read/write percentage split (Read+Write = 100).
type StreamMix struct {
	Read  int `json:"read"`
	Write int `json:"write"`
}

func (m StreamMix) String() string { return fmt.Sprintf("%d/%d", m.Read, m.Write) }

// StreamConfig parameterises a read/write-mix sweep.
type StreamConfig struct {
	// Dataset profile to serve (default DotaLeague).
	Dataset string
	// Scale and Seed pin the generated base graph (defaults 8 / 42);
	// Seed also derives the update stream and the users' query streams.
	Scale int
	Seed  int64
	// Mixes to sweep (default 90/10, 70/30, 50/50).
	Mixes []StreamMix
	// Users is the concurrent user count (default 64).
	Users int
	// OpsPerUser is how many operations each user issues (default 64).
	OpsPerUser int
	// Batches / BatchSize / DeleteFrac shape the update stream
	// (defaults 64 batches × 16 ops, 30% deletions).
	Batches    int
	BatchSize  int
	DeleteFrac float64
	// CompactEvery folds the overlay after this many applied batches
	// (default 8 — small, so every run crosses several compaction
	// points and their incremental-vs-full equivalence checks).
	CompactEvery int
	// Workers caps kernel parallelism (0: kernel default).
	Workers int
}

func (c *StreamConfig) fill() error {
	if c.Dataset == "" {
		c.Dataset = "DotaLeague"
	}
	if c.Scale <= 0 {
		c.Scale = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []StreamMix{{90, 10}, {70, 30}, {50, 50}}
	}
	for _, m := range c.Mixes {
		if m.Read < 0 || m.Write < 0 || m.Read+m.Write != 100 {
			return fmt.Errorf("serve: invalid mix %d/%d (want read+write = 100)", m.Read, m.Write)
		}
	}
	if c.Users <= 0 {
		c.Users = 64
	}
	if c.OpsPerUser <= 0 {
		c.OpsPerUser = 64
	}
	if c.Batches <= 0 {
		c.Batches = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.DeleteFrac < 0 || c.DeleteFrac >= 1 {
		c.DeleteFrac = 0.3
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 8
	}
	return nil
}

// StreamRow is one mix's outcome.
type StreamRow struct {
	Mix        StreamMix     `json:"mix"`
	Queries    int64         `json:"queries"`
	Mutations  int64         `json:"mutations"`
	TornEpochs int64         `json:"torn_epochs"`
	FinalEpoch uint64        `json:"final_epoch"`
	Compacted  int64         `json:"compactions"`
	Match      bool          `json:"match"`
	Errors     int64         `json:"errors"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	QPS        float64       `json:"qps"`
}

// StreamReport is a full sweep.
type StreamReport struct {
	Dataset string      `json:"dataset"`
	Users   int         `json:"users"`
	Rows    []StreamRow `json:"rows"`
}

func (r *StreamReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream sweep %s: %d users\n", r.Dataset, r.Users)
	fmt.Fprintf(&b, "  %-7s %9s %9s %6s %6s %6s %10s %7s\n",
		"mix", "queries", "mutations", "torn", "epoch", "compat", "qps", "verdict")
	for _, row := range r.Rows {
		verdict := "MATCH"
		if !row.Match {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(&b, "  %-7s %9d %9d %6d %6d %6d %10.0f %7s\n",
			row.Mix, row.Queries, row.Mutations, row.TornEpochs,
			row.FinalEpoch, row.Compacted, row.QPS, verdict)
	}
	return b.String()
}

// Ok reports whether every row matched with zero torn epochs and zero
// errors — the stream gate's pass condition.
func (r *StreamReport) Ok() bool {
	for _, row := range r.Rows {
		if !row.Match || row.TornEpochs != 0 || row.Errors != 0 {
			return false
		}
	}
	return len(r.Rows) > 0
}

// RunStream sweeps the configured read/write mixes, each on a fresh
// server over the same base graph and update stream.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p, err := datagen.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	base := p.GenerateScaled(cfg.Scale, cfg.Seed)
	batches := datagen.UpdateStream(base, cfg.Seed, cfg.Batches, cfg.BatchSize, cfg.DeleteFrac)
	want := cleanReplayBytes(base, batches)

	rep := &StreamReport{Dataset: p.Name, Users: cfg.Users}
	for _, mix := range cfg.Mixes {
		row, err := runStreamMix(&cfg, p.Name, base, batches, want, mix)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}

// cleanReplayBytes applies every batch in order on a scratch Mutable
// and returns the compacted CSR's canonical bytes — the reference any
// racy run must land on.
func cleanReplayBytes(base *graph.Graph, batches []evolve.Batch) []byte {
	m := evolve.NewMutable(base)
	for _, b := range batches {
		if _, err := m.Submit(b); err != nil {
			panic(fmt.Sprintf("serve: clean replay rejected batch %d: %v", b.Seq, err))
		}
	}
	return graphBytesOrPanic(m.Compact().Base())
}

func graphBytesOrPanic(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func runStreamMix(cfg *StreamConfig, dsName string, base *graph.Graph,
	batches []evolve.Batch, want []byte, mix StreamMix) (*StreamRow, error) {
	srv, err := New(Config{
		Datasets:     []string{dsName},
		Scale:        cfg.Scale,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		CompactEvery: cfg.CompactEvery,
		QueryTimeout: 30 * time.Second, // not a latency gate; -race runs are slow
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	n := base.NumVertices()
	row := &StreamRow{Mix: mix}
	// handed counts batches claimed by writers; an answer's epoch may
	// never exceed it (claim happens before Submit), so it is the
	// torn-epoch ceiling.
	var handed atomic.Int64
	var queries, mutations, torn, errCount int64
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(u)*7919 + int64(mix.Read)))
			var lastEpoch uint64
			observe := func(epoch uint64, ceiling int64) {
				if epoch > uint64(ceiling) || epoch < lastEpoch {
					atomic.AddInt64(&torn, 1)
				}
				if epoch > lastEpoch {
					lastEpoch = epoch
				}
			}
			for op := 0; op < cfg.OpsPerUser; op++ {
				if rng.Intn(100) < mix.Write {
					if i := handed.Add(1) - 1; int(i) < len(batches) {
						ans, err := srv.Mutate(dsName, batches[i])
						if err != nil {
							atomic.AddInt64(&errCount, 1)
							continue
						}
						atomic.AddInt64(&mutations, 1)
						observe(ans.Epoch, handed.Load())
						continue
					}
					// Stream exhausted: fall through to a read.
				}
				epoch, err := streamRead(srv, dsName, rng, n)
				if err != nil {
					atomic.AddInt64(&errCount, 1)
					continue
				}
				atomic.AddInt64(&queries, 1)
				observe(epoch, handed.Load())
			}
		}(u)
	}
	wg.Wait()

	// Drain: submit whatever the users did not claim, in order, then
	// flush-compact and compare against the clean replay.
	for i := handed.Load(); int(i) < len(batches); i++ {
		if _, err := srv.Mutate(dsName, batches[i]); err != nil {
			return nil, fmt.Errorf("serve: drain batch %d: %w", batches[i].Seq, err)
		}
	}
	if _, err := srv.Compact(dsName); err != nil {
		return nil, err
	}
	st, err := srv.Stats(dsName)
	if err != nil {
		return nil, err
	}
	final, err := srv.Graph(dsName)
	if err != nil {
		return nil, err
	}
	row.Queries = queries
	row.Mutations = mutations
	row.TornEpochs = torn
	row.Errors = errCount
	row.FinalEpoch = st.Epoch
	row.Compacted = st.Compactions
	row.Match = bytes.Equal(graphBytesOrPanic(final), want)
	row.Elapsed = time.Since(start)
	row.QPS = float64(queries) / row.Elapsed.Seconds()
	return row, nil
}

// streamRead issues one epoch-tagged read: mostly BFS (snapshot- or
// batcher-path), some component lookups, an occasional stats poll. All
// three report the live epoch, so they all feed the torn-epoch check.
func streamRead(srv *Server, dsName string, rng *rand.Rand, n int) (uint64, error) {
	src := graph.VertexID(rng.Intn(n))
	switch p := rng.Intn(100); {
	case p < 80:
		ans, err := srv.BFS(context.Background(), dsName, src, graph.VertexID(rng.Intn(n)))
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	case p < 95:
		ans, err := srv.Component(context.Background(), dsName, src)
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	default:
		ans, err := srv.Stats(dsName)
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	}
}

// StreamChaosRow is one seed's chaos-delivery outcome.
type StreamChaosRow struct {
	Seed       int64 `json:"seed"`
	Delivered  int   `json:"delivered"`
	Dropped    int   `json:"dropped"`
	Duplicated int   `json:"duplicated"`
	Delayed    int   `json:"delayed"`
	// Queries are the concurrent reads racing the chaotic delivery.
	Queries    int64  `json:"queries"`
	TornEpochs int64  `json:"torn_epochs"`
	FinalEpoch uint64 `json:"final_epoch"`
	Match      bool   `json:"match"`
}

// StreamChaosReport is a multi-seed chaos sweep.
type StreamChaosReport struct {
	Dataset string           `json:"dataset"`
	Rows    []StreamChaosRow `json:"rows"`
}

func (r *StreamChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream chaos %s:\n", r.Dataset)
	fmt.Fprintf(&b, "  %4s %9s %7s %4s %7s %7s %5s %6s %7s\n",
		"seed", "delivered", "dropped", "dup", "delayed", "queries", "torn", "epoch", "verdict")
	for _, row := range r.Rows {
		verdict := "MATCH"
		if !row.Match {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(&b, "  %4d %9d %7d %4d %7d %7d %5d %6d %7s\n",
			row.Seed, row.Delivered, row.Dropped, row.Duplicated, row.Delayed,
			row.Queries, row.TornEpochs, row.FinalEpoch, verdict)
	}
	return b.String()
}

// Ok is the chaos gate's pass condition: every seed MATCHed with no
// torn epochs, and the plan actually injected faults somewhere (an
// all-quiet plan would make the verdict vacuous).
func (r *StreamChaosReport) Ok() bool {
	if len(r.Rows) == 0 {
		return false
	}
	faults := 0
	for _, row := range r.Rows {
		if !row.Match || row.TornEpochs != 0 {
			return false
		}
		faults += row.Dropped + row.Duplicated + row.Delayed
	}
	return faults > 0
}

// RunStreamChaos replays the update stream through the deterministic
// lossy transport (fault.StreamPlan: dropped, duplicated, reordered
// batches) for each seed, against a fresh server, with light
// concurrent reads racing the delivery. Exactly-once application means
// every seed's final CSR is byte-identical to the clean replay.
func RunStreamChaos(cfg StreamConfig, seeds []int64) (*StreamChaosReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	p, err := datagen.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	base := p.GenerateScaled(cfg.Scale, cfg.Seed)
	batches := datagen.UpdateStream(base, cfg.Seed, cfg.Batches, cfg.BatchSize, cfg.DeleteFrac)
	want := cleanReplayBytes(base, batches)
	n := base.NumVertices()

	rep := &StreamChaosReport{Dataset: p.Name}
	for _, seed := range seeds {
		srv, err := New(Config{
			Datasets:     []string{p.Name},
			Scale:        cfg.Scale,
			Seed:         cfg.Seed,
			Workers:      cfg.Workers,
			CompactEvery: cfg.CompactEvery,
			QueryTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		row, err := runChaosSeed(srv, p.Name, batches, want, seed, n)
		srv.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}

func runChaosSeed(srv *Server, dsName string, batches []evolve.Batch,
	want []byte, seed int64, n int) (*StreamChaosRow, error) {
	row := &StreamChaosRow{Seed: seed}
	inj := fault.New(fault.StreamPlan(seed), nil)

	// Light concurrent reads racing the chaotic delivery.
	stop := make(chan struct{})
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed * 104729))
		var lastEpoch uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			ans, err := srv.BFS(context.Background(), dsName, graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
			if err != nil {
				readerErr = err
				return
			}
			row.Queries++
			// Delivery may reorder batches but epochs still only move
			// forward: applied prefixes never regress.
			if ans.Epoch < lastEpoch {
				row.TornEpochs++
			}
			if ans.Epoch > lastEpoch {
				lastEpoch = ans.Epoch
			}
		}
	}()

	submit := func(b evolve.Batch) (evolve.SubmitResult, error) {
		ans, err := srv.Mutate(dsName, b)
		if err != nil {
			return evolve.SubmitResult{}, err
		}
		return evolve.SubmitResult{Status: ans.Status, Epoch: ans.Epoch}, nil
	}
	st, err := evolve.ChaosDeliver(submit, batches, inj)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("serve: chaos delivery (seed %d): %w", seed, err)
	}
	if readerErr != nil {
		return nil, fmt.Errorf("serve: chaos reader (seed %d): %w", seed, readerErr)
	}
	if _, err := srv.Compact(dsName); err != nil {
		return nil, err
	}
	stats, err := srv.Stats(dsName)
	if err != nil {
		return nil, err
	}
	final, err := srv.Graph(dsName)
	if err != nil {
		return nil, err
	}
	row.Delivered = st.Delivered
	row.Dropped = st.Dropped
	row.Duplicated = st.Duplicated
	row.Delayed = st.Delayed
	row.FinalEpoch = stats.Epoch
	row.Match = bytes.Equal(graphBytesOrPanic(final), want)
	return row, nil
}
