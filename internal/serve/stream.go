package serve

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The user fleet: the one closed-loop driver of the serving daemon. N
// users issue a read/write mix against one evolving dataset of an
// in-process server — reads are epoch-tagged point queries, writes are
// seeded update-stream batches claimed from a shared sequencer (so
// batch submission order is racy on purpose and exercises the
// exactly-once reorder buffer). Reads are BFS, component and stats
// queries, 80/15/5. StreamConfig sets the stop rule and the think
// time; a 100/0 mix is a read-only load test. Each row runs on a fresh
// server.
//
// Every row carries the load figures (QPS, errors by class, read
// latency percentiles) and two invariants:
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

// deleteFrac is the share of update-stream operations that delete an
// edge; the rest insert.
const deleteFrac = 0.3

// StreamConfig parameterises a fleet run: one row per mix. Zero fields
// take their DefaultStreamConfig value.
type StreamConfig struct {
	// Dataset profile to serve.
	Dataset string
	// Scale and Seed pin the generated base graph; Seed also derives
	// the update stream and the users' query streams.
	Scale int
	Seed  int64
	// Mixes to sweep.
	Mixes []StreamMix
	// Users is the concurrent user count.
	Users int
	// OpsPerUser is how many operations each user issues; Duration,
	// when set, bounds the row by time instead.
	OpsPerUser int
	Duration   time.Duration
	// Think, when set, is the mean of the exponential think time a user
	// sleeps between operations (Poisson arrivals; unset: back-to-back).
	Think time.Duration
	// Batches × BatchSize shape the update stream.
	Batches   int
	BatchSize int
	// CompactEvery folds the overlay after this many applied batches
	// (small by default, so every run crosses several compaction points
	// and their incremental-vs-full equivalence checks; negative
	// disables).
	CompactEvery int
	// CacheDir and Obs are handed to each row's server: snapshot cache
	// (a compaction also writes its snapshot there) and span/counter
	// sink.
	CacheDir string
	Obs      *obs.Session
}

// DefaultStreamConfig is the sweep `graphbench stream` and
// RunStream(StreamConfig{}) both run.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Dataset:      "DotaLeague",
		Scale:        8,
		Seed:         42,
		Mixes:        []StreamMix{{90, 10}, {70, 30}, {50, 50}},
		Users:        64,
		OpsPerUser:   64,
		Batches:      1024,
		BatchSize:    16,
		CompactEvery: 8,
	}
}

func (c *StreamConfig) fill() error {
	def := DefaultStreamConfig()
	c.Dataset = cmp.Or(c.Dataset, def.Dataset)
	c.Scale = cmp.Or(c.Scale, def.Scale)
	c.Seed = cmp.Or(c.Seed, def.Seed)
	c.Users = cmp.Or(c.Users, def.Users)
	c.OpsPerUser = cmp.Or(c.OpsPerUser, def.OpsPerUser)
	c.Batches = cmp.Or(c.Batches, def.Batches)
	c.BatchSize = cmp.Or(c.BatchSize, def.BatchSize)
	c.CompactEvery = cmp.Or(c.CompactEvery, def.CompactEvery)
	if len(c.Mixes) == 0 {
		c.Mixes = def.Mixes
	}
	for _, m := range c.Mixes {
		if m.Read < 0 || m.Write < 0 || m.Read+m.Write != 100 {
			return fmt.Errorf("serve: invalid mix %d/%d (want read+write = 100)", m.Read, m.Write)
		}
	}
	if c.Scale < 0 || c.Users < 0 || c.OpsPerUser < 0 || c.Batches < 0 || c.BatchSize < 0 || c.Duration < 0 || c.Think < 0 {
		return errors.New("serve: negative size or duration in stream config")
	}
	return nil
}

// StreamRow is one fleet run's outcome.
type StreamRow struct {
	Mix StreamMix `json:"mix"`
	// Seed and Delivery, on the rows of a chaos sweep, are the fault
	// plan's seed and what the lossy transport did under it.
	Seed     int64                `json:"seed,omitempty"`
	Delivery *evolve.DeliverStats `json:"delivery,omitempty"`
	// Queries and Mutations count answered reads and accepted batches;
	// Errors counts failed operations of either kind, of which
	// Overloads were shed by admission control and Deadlines timed out.
	Queries   int64 `json:"queries"`
	Mutations int64 `json:"mutations"`
	Errors    int64 `json:"errors"`
	Overloads int64 `json:"overloads"`
	Deadlines int64 `json:"deadlines"`
	// Elapsed is the fleet's run time (drain and verdict excluded), QPS
	// the answered reads over it, and the percentiles their latency.
	Elapsed time.Duration `json:"elapsed_ns"`
	QPS     float64       `json:"qps"`
	P50     time.Duration `json:"p50_ns"`
	P99     time.Duration `json:"p99_ns"`
	P999    time.Duration `json:"p999_ns"`
	Max     time.Duration `json:"max_ns"`

	TornEpochs int64  `json:"torn_epochs"`
	FinalEpoch uint64 `json:"final_epoch"`
	Compacted  int64  `json:"compactions"`
	Match      bool   `json:"match"`
}

// ok is the gate's per-row pass condition.
func (r *StreamRow) ok() bool { return r.Match && r.TornEpochs == 0 && r.Errors == 0 }

const (
	rowHeader   = "mix       queries mutations err o/d/x  torn  epoch compat       qps       p50       p99      p999  verdict"
	chaosHeader = "  seed delivered dropped  dup delayed"
)

// String renders the row under rowHeader (and chaosHeader, for a chaos
// row).
func (r *StreamRow) String() string {
	verdict := "MATCH"
	if !r.Match {
		verdict = "MISMATCH"
	}
	us := func(d time.Duration) time.Duration {
		if d >= time.Millisecond {
			return d.Round(time.Microsecond)
		}
		return d
	}
	line := fmt.Sprintf("%-7s %9d %9d %9s %5d %6d %6d %9.0f %9s %9s %9s %8s",
		r.Mix, r.Queries, r.Mutations,
		fmt.Sprintf("%d/%d/%d", r.Overloads, r.Deadlines, r.Errors-r.Overloads-r.Deadlines),
		r.TornEpochs, r.FinalEpoch, r.Compacted, r.QPS, us(r.P50), us(r.P99), us(r.P999), verdict)
	if d := r.Delivery; d != nil {
		line += fmt.Sprintf(" %5d %9d %7d %4d %7d", r.Seed, d.Delivered, d.Dropped, d.Duplicated, d.Delayed)
	}
	return line
}

// StreamReport is a full sweep.
type StreamReport struct {
	Dataset string `json:"dataset"`
	// Load is the fleet's shape: users, stop rule, think time.
	Load string      `json:"load"`
	Rows []StreamRow `json:"rows"`
}

func (r *StreamReport) String() string {
	var b strings.Builder
	head := rowHeader
	if len(r.Rows) > 0 && r.Rows[0].Delivery != nil {
		head += chaosHeader
	}
	fmt.Fprintf(&b, "stream sweep %s: %s\n  %s\n", r.Dataset, r.Load, head)
	for i := range r.Rows {
		fmt.Fprintf(&b, "  %s\n", &r.Rows[i])
	}
	return b.String()
}

// Ok is the stream gate's pass condition: every row matched with zero
// torn epochs and zero errors, and a chaos sweep's plans actually
// injected faults somewhere (an all-quiet plan would make the verdict
// vacuous).
func (r *StreamReport) Ok() bool {
	chaos, faults := false, 0
	for i := range r.Rows {
		row := &r.Rows[i]
		if !row.ok() {
			return false
		}
		if d := row.Delivery; d != nil {
			chaos = true
			faults += d.Dropped + d.Duplicated + d.Delayed
		}
	}
	return len(r.Rows) > 0 && (!chaos || faults > 0)
}

// streamRun is what the rows of one sweep share: the filled config,
// the update stream, and the bytes every row must land on.
type streamRun struct {
	cfg     StreamConfig
	n       int // vertex count
	batches []evolve.Batch
	want    []byte // the clean in-order replay's compacted CSR
}

func newStreamRun(cfg StreamConfig) (*streamRun, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p, err := datagen.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	cfg.Dataset = p.Name
	base := p.GenerateCached(cfg.Scale, cfg.Seed, cfg.CacheDir)
	s := &streamRun{cfg: cfg, n: base.NumVertices()}
	s.batches = datagen.UpdateStream(base, cfg.Seed, cfg.Batches, cfg.BatchSize, deleteFrac)
	m := evolve.NewMutable(base)
	for _, b := range s.batches {
		if _, err := m.Submit(b); err != nil {
			return nil, fmt.Errorf("serve: clean replay rejected batch %d: %w", b.Seq, err)
		}
	}
	s.want, err = graphBytes(m.Compact().Base())
	return s, err
}

func graphBytes(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	err := graph.WriteBinary(&buf, g)
	return buf.Bytes(), err
}

// server starts a fresh daemon for one row.
func (s *streamRun) server() (*Server, error) {
	return New(Config{
		Datasets:     []string{s.cfg.Dataset},
		Scale:        s.cfg.Scale,
		Seed:         s.cfg.Seed,
		CacheDir:     s.cfg.CacheDir,
		CompactEvery: s.cfg.CompactEvery,
		QueryTimeout: 30 * time.Second, // not a latency gate; -race runs are slow
		Obs:          s.cfg.Obs,
	})
}

// row drives srv with the configured fleet at one mix, then drains the
// update stream and fills in the verdict.
func (s *streamRun) row(srv *Server, mix StreamMix) (*StreamRow, error) {
	f := s.fleet(srv, mix)
	ctx := context.Background()
	if s.cfg.Duration > 0 {
		f.ops = 0 // the clock stops the users, not the count
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Duration)
		defer cancel()
	}
	row := f.run(ctx)
	return row, f.verdict(row)
}

// verdict submits whatever the fleet's writers did not claim, in
// order, flush-compacts, and compares the served CSR against the clean
// replay.
func (f *fleet) verdict(row *StreamRow) error {
	ds := f.cfg.Dataset
	for i := f.handed.Load(); int(i) < len(f.batches); i++ {
		if _, err := f.srv.Mutate(ds, f.batches[i]); err != nil {
			return fmt.Errorf("serve: drain batch %d: %w", f.batches[i].Seq, err)
		}
	}
	folded, err := f.srv.Compact(ds)
	if err != nil {
		return err
	}
	final, err := f.srv.Graph(ds)
	if err != nil {
		return err
	}
	got, err := graphBytes(final)
	if err != nil {
		return err
	}
	row.FinalEpoch = folded.Epoch
	row.Compacted = folded.Compactions
	row.Match = bytes.Equal(got, f.want)
	return nil
}

// sweep runs one row per element of over, each on a fresh server.
func sweep[T any](s *streamRun, load string, over []T, row func(*Server, T) (*StreamRow, error)) (*StreamReport, error) {
	rep := &StreamReport{Dataset: s.cfg.Dataset, Load: load}
	for _, x := range over {
		srv, err := s.server()
		if err != nil {
			return nil, err
		}
		r, err := row(srv, x)
		srv.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, *r)
	}
	return rep, nil
}

// RunStream sweeps the configured read/write mixes, each on a fresh
// server over the same base graph and update stream.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	s, err := newStreamRun(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	load := fmt.Sprintf("%d users x %d ops", cfg.Users, cfg.OpsPerUser)
	if cfg.Duration > 0 {
		load = fmt.Sprintf("%d users for %s", cfg.Users, cfg.Duration)
	}
	if cfg.Think > 0 {
		load += fmt.Sprintf(", think %s", cfg.Think)
	}
	return sweep(s, load, cfg.Mixes, s.row)
}

// fleet is one closed-loop user population of a sweep against one
// server.
type fleet struct {
	*streamRun
	srv   *Server
	mix   StreamMix
	users int
	ops   int // per user; 0: until the run's context is done
	seed  int64
	// handed counts batches claimed by writers; an answer's epoch may
	// never exceed it (claim happens before Submit), so it is the
	// torn-epoch ceiling.
	handed atomic.Int64
}

func (s *streamRun) fleet(srv *Server, mix StreamMix) *fleet {
	return &fleet{streamRun: s, srv: srv, mix: mix,
		users: s.cfg.Users, ops: s.cfg.OpsPerUser, seed: s.cfg.Seed + int64(mix.Read)}
}

// userStats is one user's tally; users share nothing but the batch
// sequencer, and run merges the tallies once they have all returned.
type userStats struct {
	lat                                               []time.Duration
	mutations, errs, overloads, deadlines, tornEpochs int64
}

// fail classifies one failed operation. An overloaded server is backed
// off briefly so it sheds load instead of spinning the rejection path.
func (st *userStats) fail(err error) {
	st.errs++
	switch {
	case errors.Is(err, ErrOverloaded):
		st.overloads++
		time.Sleep(50 * time.Microsecond)
	case errors.Is(err, algo.ErrDeadlineExceeded):
		st.deadlines++
	}
}

// run starts the users, waits for every one to stop — after f.ops
// operations each, or when ctx is done — and merges their tallies.
func (f *fleet) run(ctx context.Context) *StreamRow {
	stats := make([]userStats, f.users)
	var wg sync.WaitGroup
	start := time.Now()
	for u := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.user(ctx, u, &stats[u])
		}()
	}
	wg.Wait()

	row := &StreamRow{Mix: f.mix, Elapsed: time.Since(start)}
	var lat []time.Duration
	for i := range stats {
		st := &stats[i]
		row.Mutations += st.mutations
		row.Errors += st.errs
		row.Overloads += st.overloads
		row.Deadlines += st.deadlines
		row.TornEpochs += st.tornEpochs
		lat = append(lat, st.lat...)
	}
	row.Queries = int64(len(lat))
	row.QPS = float64(row.Queries) / row.Elapsed.Seconds()
	if len(lat) > 0 {
		slices.Sort(lat)
		row.P50 = metrics.NearestRank(lat, 0.50)
		row.P99 = metrics.NearestRank(lat, 0.99)
		row.P999 = metrics.NearestRank(lat, 0.999)
		row.Max = lat[len(lat)-1]
	}
	return row
}

// user is one user's session: a seeded stream of writes (while the
// update stream lasts) and reads, each answer's epoch checked against
// the ceiling and the session's own history.
func (f *fleet) user(ctx context.Context, u int, st *userStats) {
	rng := rand.New(rand.NewSource(f.seed + int64(u)*7919))
	tracer := f.srv.cfg.Obs.T()
	var lastEpoch uint64
	observe := func(epoch uint64) {
		if epoch > uint64(f.handed.Load()) || epoch < lastEpoch {
			st.tornEpochs++
		}
		lastEpoch = max(lastEpoch, epoch)
	}
	for op := 0; (f.ops == 0 || op < f.ops) && ctx.Err() == nil; op++ {
		if op > 0 && f.cfg.Think > 0 {
			time.Sleep(time.Duration(rng.ExpFloat64() * float64(f.cfg.Think)))
		}
		if rng.Intn(100) < f.mix.Write {
			if i := f.handed.Add(1) - 1; int(i) < len(f.batches) {
				if ans, err := f.srv.Mutate(f.cfg.Dataset, f.batches[i]); err != nil {
					st.fail(err)
				} else {
					st.mutations++
					observe(ans.Epoch)
				}
				continue
			}
			// Stream exhausted: fall through to a read.
		}
		span := tracer.Begin("stream.read", obs.KindPhase, int64(u), obs.SpanRef{})
		t0 := time.Now()
		epoch, err := f.read(rng)
		lat := time.Since(t0)
		tracer.End(span)
		if err != nil {
			st.fail(err)
			continue
		}
		st.lat = append(st.lat, lat)
		observe(epoch)
	}
}

// read issues one point query, BFS 80 %, component 15 % and stats 5 %
// of the time, and returns the epoch it was answered at. Every answer
// is served at the live epoch.
func (f *fleet) read(rng *rand.Rand) (uint64, error) {
	ctx := context.Background()
	src := graph.VertexID(rng.Intn(f.n))
	target := graph.VertexID(rng.Intn(f.n))
	switch p := rng.Intn(100); {
	case p < 80:
		ans, err := f.srv.BFS(ctx, f.cfg.Dataset, src, target)
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	case p < 95:
		ans, err := f.srv.Component(ctx, f.cfg.Dataset, src)
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	default:
		ans, err := f.srv.Stats(f.cfg.Dataset)
		if err != nil {
			return 0, err
		}
		return ans.Epoch, nil
	}
}

// RunStreamChaos replays the update stream through the deterministic
// lossy transport (fault.StreamPlan: dropped, duplicated, reordered
// batches) for each seed, against a fresh server, with a one-user
// read-only fleet racing the delivery. Exactly-once application means
// every seed's final CSR is byte-identical to the clean replay.
func RunStreamChaos(cfg StreamConfig, seeds []int64) (*StreamReport, error) {
	s, err := newStreamRun(cfg)
	if err != nil {
		return nil, err
	}
	return sweep(s, "lossy transport, 1 user until delivered", seeds, s.chaosRow)
}

func (s *streamRun) chaosRow(srv *Server, seed int64) (*StreamRow, error) {
	// The transport owns every batch: the reader claims none, and its
	// epoch ceiling is the whole stream. Delivery may reorder batches
	// but epochs still only move forward: applied prefixes never
	// regress.
	f := s.fleet(srv, StreamMix{Read: 100})
	f.users, f.ops, f.seed = 1, 0, seed*104729
	f.handed.Store(int64(len(s.batches)))

	submit := func(b evolve.Batch) (evolve.SubmitResult, error) {
		ans, err := srv.Mutate(f.cfg.Dataset, b)
		if err != nil {
			return evolve.SubmitResult{}, err
		}
		return evolve.SubmitResult{Status: ans.Status, Epoch: ans.Epoch}, nil
	}
	// The reader runs until the delivery is over; cancel orders the
	// goroutine's results before run's return.
	ctx, cancel := context.WithCancel(context.Background())
	var st evolve.DeliverStats
	var err error
	go func() {
		defer cancel()
		st, err = evolve.ChaosDeliver(submit, s.batches, fault.New(fault.StreamPlan(seed), nil))
	}()
	row := f.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: chaos delivery (seed %d): %w", seed, err)
	}
	row.Seed, row.Delivery = seed, &st
	return row, f.verdict(row)
}
