package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/obs"
)

// batcher coalesces concurrent BFS-backed point queries into
// multi-source lane sweeps, in two pipelined stages per dataset. The
// sweep stage (dispatch) pulls queries off a bounded queue, gathers a
// batch by group commit (see collect: the first waiter opens it,
// everything already queued rides along) and runs algo.BFSMultiSource
// once. It hands the swept lanes over an unbuffered channel to the
// certificate stage (certify), which certifies the whole batch with
// one word-parallel algo.ValidateBFSBatch pass, installs the lanes
// that passed in the result cache and fans every lane out to its
// waiters. So batch N+1 forms and sweeps while batch N is certified,
// and no lane reaches a waiter or the cache uncertified.
//
// The queue bound IS the admission controller: tree() never blocks on
// a full queue, it fails fast with ErrOverloaded so callers shed load
// at the edge instead of stacking goroutines.
//
// A batcher serves exactly one immutable CSR — one compacted epoch of
// an evolving dataset. Compaction builds a fresh batcher for the new
// CSR and retires the old one; a query that raced the swap gets
// errStaleBatcher and the serve layer re-answers it on the live
// snapshot.
type batcher struct {
	g   *graph.Graph
	cfg *Config

	// sweep is the kernel behind a batch: algo.BFSMultiSource, except
	// in tests that fail a sweep or damage a lane on its way to the
	// certificate.
	sweep func(context.Context, *graph.Graph, []graph.VertexID, algo.GapOptions) ([]*algo.BFSTree, error)
	// validate is the batch certificate: cert.Validate, except in
	// tests that hold a certificate open to watch the next sweep run.
	validate func(*graph.Graph, []graph.VertexID, []*algo.BFSResult) []error
	// cert and results are the batch certificate's scratch — mask
	// planes and the per-lane result views — touched only by the
	// certificate stage and reused across batches.
	cert    algo.BFSBatchValidator
	results []*algo.BFSResult

	queue chan bfsWaiter
	// swept is the handoff from the sweep stage to the certificate
	// stage. It is unbuffered: a second swept batch never waits in
	// between, so at most one batch sweeps while one is certified.
	swept    chan sweptBatch
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once

	mu    sync.RWMutex
	cache map[graph.VertexID]*algo.BFSTree

	tracer *obs.Tracer
	// Counters (nil-safe when no obs session is attached):
	//   serve.queries     point queries admitted
	//   serve.cache.hits  served straight from the result cache
	//   serve.batches     sweeps executed
	//   serve.lanes       total lanes across sweeps (lanes/batches =
	//                     achieved amortization)
	//   serve.overloads   queries rejected by admission control
	//   serve.deadlines   queries that missed their deadline
	//   serve.handoff.ns        wall time the sweep stage waited for a
	//                           busy certificate stage (zero while the
	//                           sweep is the slower stage)
	//   serve.certify.ns        wall time inside batch certificates
	//   serve.certify.lanes     lanes put to a certificate
	//   serve.certify.failures  lanes whose certificate failed
	queries, hits, batches, lanes, overloads, deadlines *obs.Counter
	handoffNs, certifyNs, certifyLanes, certifyFailures *obs.Counter
}

// sweptBatch is one swept batch on its way to the certificate stage.
type sweptBatch struct {
	srcs    []graph.VertexID
	waiters map[graph.VertexID][]chan bfsOutcome
	trees   []*algo.BFSTree
}

// bfsWaiter is one queued query: a source plus the channel its result
// fans out on. done is buffered so the dispatcher never blocks on a
// waiter that gave up at its deadline.
type bfsWaiter struct {
	src  graph.VertexID
	done chan bfsOutcome
}

type bfsOutcome struct {
	tree *algo.BFSTree
	err  error
}

// errStaleBatcher means this batcher was retired by a compaction while
// the query was in flight; the caller re-answers on the live snapshot.
var errStaleBatcher = errors.New("serve: batcher retired by compaction")

func newBatcher(g *graph.Graph, cfg *Config) *batcher {
	b := buildBatcher(g, cfg)
	b.start()
	return b
}

// buildBatcher is newBatcher short of starting the two stages, so a
// test can swap the sweep or certificate seam or pre-load the queue
// first.
func buildBatcher(g *graph.Graph, cfg *Config) *batcher {
	reg := cfg.Obs.R()
	b := &batcher{
		g:               g,
		cfg:             cfg,
		sweep:           algo.BFSMultiSource,
		queue:           make(chan bfsWaiter, cfg.QueueDepth),
		swept:           make(chan sweptBatch),
		stopCh:          make(chan struct{}),
		doneCh:          make(chan struct{}),
		cache:           make(map[graph.VertexID]*algo.BFSTree),
		tracer:          cfg.Obs.T(),
		queries:         reg.Counter("serve.queries"),
		hits:            reg.Counter("serve.cache.hits"),
		batches:         reg.Counter("serve.batches"),
		lanes:           reg.Counter("serve.lanes"),
		overloads:       reg.Counter("serve.overloads"),
		deadlines:       reg.Counter("serve.deadlines"),
		handoffNs:       reg.Counter("serve.handoff.ns"),
		certifyNs:       reg.Counter("serve.certify.ns"),
		certifyLanes:    reg.Counter("serve.certify.lanes"),
		certifyFailures: reg.Counter("serve.certify.failures"),
	}
	b.validate = b.cert.Validate
	return b
}

// start runs the sweep stage and the certificate stage. stop ends
// both: the sweep stage drains the queue and closes the handoff, and
// the certificate stage answers what it was handed and closes doneCh.
func (b *batcher) start() {
	go b.dispatch()
	go b.certify()
}

func (b *batcher) stop() {
	b.stopOnce.Do(func() { close(b.stopCh) })
	<-b.doneCh
}

func (b *batcher) cacheLen() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.cache)
}

func (b *batcher) lookup(src graph.VertexID) *algo.BFSTree {
	b.mu.RLock()
	t := b.cache[src]
	b.mu.RUnlock()
	return t
}

// tree returns the certified BFS tree for src: from the result cache
// when resident, otherwise by riding the next batched sweep. The
// configured QueryTimeout is layered onto the caller's context.
func (b *batcher) tree(ctx context.Context, src graph.VertexID) (t *algo.BFSTree, cached bool, err error) {
	b.queries.Add(1)
	if t := b.lookup(src); t != nil {
		b.hits.Add(1)
		return t, true, nil
	}
	ctx, cancel := context.WithTimeout(ctx, b.cfg.QueryTimeout)
	defer cancel()

	w := bfsWaiter{src: src, done: make(chan bfsOutcome, 1)}
	select {
	case b.queue <- w:
	default:
		b.overloads.Add(1)
		return nil, false, ErrOverloaded
	}
	// A sweep cancelled at its deadline is this query's missed
	// deadline too; any other sweep or certificate error is not.
	answered := func(out bfsOutcome) (*algo.BFSTree, bool, error) {
		if errors.Is(out.err, algo.ErrDeadlineExceeded) {
			b.deadlines.Add(1)
		}
		return out.tree, false, out.err
	}
	select {
	case out := <-w.done:
		return answered(out)
	case <-b.doneCh:
		// The batcher retired mid-query. The shutdown drain may still
		// have answered this waiter (done is buffered, and doneCh
		// closes only after the last certificate), so check once more
		// before reporting staleness.
		select {
		case out := <-w.done:
			return answered(out)
		default:
			return nil, false, errStaleBatcher
		}
	case <-ctx.Done():
		b.deadlines.Add(1)
		return nil, false, fmt.Errorf("%w waiting for batch: %v", algo.ErrDeadlineExceeded, ctx.Err())
	}
}

// dispatch is the sweep stage: collect a batch, sweep it, hand it to
// the certificate stage; on stop, drain whatever is still queued so no
// waiter is stranded, then close the handoff.
func (b *batcher) dispatch() {
	defer close(b.swept)
	for {
		select {
		case w := <-b.queue:
			b.sweepBatch(b.collect(w))
		case <-b.stopCh:
			for {
				select {
				case w := <-b.queue:
					b.sweepBatch(b.collect(w))
				default:
					return
				}
			}
		}
	}
}

// collect gathers one batch by group commit: the first waiter opens
// it, and it takes whatever else is already queued — non-blocking
// receives, so it never waits for more — up to algo.MaxBFSLanes
// distinct sources, duplicates sharing a lane. Queries that arrive
// while a batch sweeps queue up and form the next one, so under load
// the batch size follows the arrival rate with no clock (DESIGN.md
// §15). A stopping batcher drains its queue through the same path.
//
// Before it looks at the queue, collect yields the processor once.
// A send to the idle dispatcher hands it the first waiter directly
// and makes it the next goroutine to run, ahead of callers that are
// already runnable but have not enqueued yet; on a single processor
// every batch would then close at one lane. The yield lets those
// callers enqueue first. It is one yield, not a wait: whoever has not
// enqueued by then rides the next batch.
func (b *batcher) collect(first bfsWaiter) ([]graph.VertexID, map[graph.VertexID][]chan bfsOutcome) {
	runtime.Gosched()
	srcs := []graph.VertexID{first.src}
	waiters := map[graph.VertexID][]chan bfsOutcome{first.src: {first.done}}
	for len(srcs) < algo.MaxBFSLanes {
		select {
		case w := <-b.queue:
			if _, dup := waiters[w.src]; !dup {
				srcs = append(srcs, w.src)
			}
			waiters[w.src] = append(waiters[w.src], w.done)
		default:
			return srcs, waiters
		}
	}
	return srcs, waiters
}

// sweepBatch executes one multi-source sweep under the per-query
// deadline, so an expired sweep cancels mid-flight via the kernel's
// context checks. A failed sweep fans its error out here; a swept
// batch goes to the certificate stage, waiting while that stage is
// still busy with the previous batch.
func (b *batcher) sweepBatch(srcs []graph.VertexID, waiters map[graph.VertexID][]chan bfsOutcome) {
	span := b.tracer.Begin("serve.batch", obs.KindJob, int64(len(srcs)), obs.SpanRef{})
	bctx, cancel := context.WithTimeout(context.Background(), b.cfg.QueryTimeout)
	trees, err := b.sweep(bctx, b.g, srcs, algo.GapOptions{Workers: b.cfg.Workers})
	cancel()
	b.tracer.End(span)
	b.batches.Add(1)
	b.lanes.Add(int64(len(srcs)))

	if err != nil {
		for _, chans := range waiters {
			out := bfsOutcome{err: err}
			for _, ch := range chans {
				ch <- out
			}
		}
		return
	}
	// Only a wait for a busy certificate stage is timed, so
	// serve.handoff.ns stays zero while the sweep is the slower stage.
	batch := sweptBatch{srcs: srcs, waiters: waiters, trees: trees}
	select {
	case b.swept <- batch:
	default:
		start := time.Now()
		b.swept <- batch
		b.handoffNs.Add(int64(time.Since(start)))
	}
}

// certify is the certificate stage. For each swept batch it runs one
// certificate for the whole batch, then installs and fans out lane by
// lane; the cache lock is never held across the certificate. A failed
// certificate fails only its own lane. It closes doneCh once the sweep
// stage has closed the handoff and the last batch is answered.
//
// The certificate is on the books as counters only. It gets no obs
// span: the claim benchmark reads every span of this session as
// serve.batch.sweep, so a certificate span would redefine its
// serve.batch.sweep_ms.
func (b *batcher) certify() {
	defer close(b.doneCh)
	for batch := range b.swept {
		b.results = b.results[:0]
		for _, t := range batch.trees {
			b.results = append(b.results, &t.BFSResult)
		}
		start := time.Now()
		verrs := b.validate(b.g, batch.srcs, b.results)
		b.certifyNs.Add(int64(time.Since(start)))
		b.certifyLanes.Add(int64(len(batch.srcs)))
		for l, src := range batch.srcs {
			out := bfsOutcome{tree: batch.trees[l]}
			if verrs[l] != nil {
				b.certifyFailures.Add(1)
				out = bfsOutcome{err: fmt.Errorf("serve: BFS certificate failed for source %d: %w", src, verrs[l])}
			} else {
				b.mu.Lock()
				if len(b.cache) >= b.cfg.ResultCacheSize {
					for k := range b.cache {
						delete(b.cache, k)
						break
					}
				}
				b.cache[src] = batch.trees[l]
				b.mu.Unlock()
			}
			for _, ch := range batch.waiters[src] {
				ch <- out
			}
		}
	}
}
