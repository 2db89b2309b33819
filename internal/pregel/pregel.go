// Package pregel is a vertex-centric Bulk Synchronous Parallel engine
// modelled on Giraph 0.2 (Section 3.1 of the paper): supersteps with
// global barriers, message passing with optional combiners,
// aggregators, vote-to-halt with message reactivation, and a fully
// in-memory graph. Only active vertices compute in each superstep —
// the "dynamic computation mechanism" the paper credits for Giraph's
// BFS performance. The engine measures message volume and per-node
// memory demand, which is what makes Giraph's paper-documented crashes
// (STATS on WikiTalk, everything but EVO on Friendster) reproducible.
//
// The engine is generic over the vertex value V and the message M:
// values live in a typed []V, outboxes hold typed envelopes, and each
// shard receives a superstep's messages into one flat buffer with an
// offset per member, so no message is boxed and no vertex keeps an
// inbox of its own. Both types are partition.Sized: the modelled bytes
// the engine charges to the network, the inboxes and the checkpoints
// come from their Size methods, not from the Go values.
package pregel

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// messageEnvelope is the per-message framing overhead in bytes
// (destination ID plus headers); Giraph's wire format uses ~16.
const messageEnvelope = 16

// Config configures a run over vertex values V and messages M.
type Config[V, M partition.Sized] struct {
	// Program is the vertex computation, invoked once per active vertex
	// per superstep with the messages delivered to it. It must be safe
	// for concurrent calls on different vertices, and must not keep
	// msgs past the call: the engine reuses the buffer. It may reorder
	// or overwrite msgs, which the engine reads only before the call
	// (a checkpoint copies the inboxes of the next superstep).
	Program func(ctx *Context[V, M], msgs []M)
	// Combine, when non-nil, folds m into *dst: Giraph's message
	// combiner, which merges the messages bound for one vertex,
	// shrinking network traffic and inbox memory. A vertex then
	// receives at most one message a superstep.
	Combine func(dst *M, m M)
	// MaxSupersteps bounds the run (0 = no bound).
	MaxSupersteps int
	// InitialValue seeds each vertex's state (nil = zero values).
	InitialValue func(v graph.VertexID) V
	// InitiallyActive selects the starting active set (nil = all).
	InitiallyActive func(v graph.VertexID) bool
	// SendLimitPerNode aborts the run with ErrOutOfMemory when any
	// worker's outgoing message buffer for one superstep exceeds this
	// many bytes (0 = unlimited) — Giraph's crash mode when "the
	// amount of messages between computing nodes becomes extremely
	// large".
	SendLimitPerNode int64
	// SkipSetup omits the job-launch phase from the profile; used when
	// several engine runs model phases of one platform job (EVO's
	// per-iteration exchanges).
	SkipSetup bool
}

// Stats summarises a run's measured behaviour.
type Stats struct {
	Supersteps     int
	TotalMessages  int64
	TotalMsgBytes  int64
	NetBytes       int64
	PeakInboxBytes int64 // largest per-node inbox in any superstep
	PeakSendBytes  int64 // largest per-node send buffer in any superstep
	ComputeCalls   int64
}

// Result is the outcome of a run.
type Result[V partition.Sized] struct {
	Values []V
	Stats  Stats
	// Aggregators holds the final value of every aggregator.
	Aggregators map[string]float64
}

// Context is the per-vertex view passed to the program. The engine
// reuses one Context per worker across vertices and supersteps; it is
// only valid for the duration of the program's call.
type Context[V, M partition.Sized] struct {
	w      *worker[V, M]
	id     graph.VertexID
	active bool
}

// ID returns the vertex ID.
func (c *Context[V, M]) ID() graph.VertexID { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *Context[V, M]) Superstep() int { return c.w.e.superstep }

// NumVertices returns |V|.
func (c *Context[V, M]) NumVertices() int { return c.w.e.g.NumVertices() }

// Out returns the vertex's out-neighbours.
func (c *Context[V, M]) Out() []graph.VertexID { return c.w.e.g.Out(c.id) }

// In returns the vertex's in-neighbours (equal to Out for undirected
// graphs).
func (c *Context[V, M]) In() []graph.VertexID { return c.w.e.g.In(c.id) }

// Directed reports whether the underlying graph is directed.
func (c *Context[V, M]) Directed() bool { return c.w.e.g.Directed() }

// OutDegree returns the vertex's out-degree.
func (c *Context[V, M]) OutDegree() int { return c.w.e.g.OutDegree(c.id) }

// Value returns the vertex state.
func (c *Context[V, M]) Value() V { return c.w.e.values[c.id] }

// SetValue replaces the vertex state.
func (c *Context[V, M]) SetValue(v V) { c.w.e.values[c.id] = v }

// Send delivers a message to dst at the next superstep.
func (c *Context[V, M]) Send(dst graph.VertexID, m M) {
	c.w.send(dst, m)
}

// SendToNeighbors sends m along every out-edge.
func (c *Context[V, M]) SendToNeighbors(m M) {
	for _, dst := range c.w.e.g.Out(c.id) {
		c.w.send(dst, m)
	}
}

// VoteToHalt deactivates the vertex until a message arrives.
func (c *Context[V, M]) VoteToHalt() { c.active = false }

// Aggregate adds x into the named sum-aggregator, visible via
// Aggregated from the next superstep.
func (c *Context[V, M]) Aggregate(name string, x float64) {
	if c.w.pendingAg == nil {
		c.w.pendingAg = make(map[string]float64)
	}
	c.w.pendingAg[name] += x
}

// Aggregated returns the named aggregator's value from the previous
// superstep.
func (c *Context[V, M]) Aggregated(name string) float64 { return c.w.e.aggPrev[name] }

// Charge adds explicit computation work beyond the per-message
// baseline (quadratic per-vertex functions such as STATS
// intersections).
func (c *Context[V, M]) Charge(ops int64) { c.w.ops += ops }

type envelope[M any] struct {
	dst graph.VertexID
	msg M
}

type worker[V, M partition.Sized] struct {
	e    *engine[V, M]
	node int // machine hosting this worker's shard
	// outbox[p] collects messages for partition p this superstep. The
	// slices are truncated, not freed, at each superstep boundary so
	// their capacity is reused for the whole run.
	outbox [][]envelope[M]
	// combSlot[dst] is the slot of dst's single envelope in
	// outbox[Owner[dst]] when a combiner is configured: the
	// sender combines in place instead of materialising one envelope
	// per message. combSeen stamps slots with the superstep epoch so
	// resetting is O(1) instead of clearing all n entries.
	combSlot  []int32
	combSeen  []uint32
	combEpoch uint32
	// ctx is the reusable per-vertex view handed to the program.
	ctx Context[V, M]
	// measured (reset every superstep)
	sentMsgs, sentBytes, netBytes, ops int64
	// rawBytes is the pre-combine send volume — what Giraph's sender
	// materialises in its out-buffer before the combiner runs, and
	// therefore what the SendLimitPerNode OOM model must see.
	rawBytes    int64
	activeAfter int64
	pendingAg   map[string]float64
}

// resetForSuperstep clears per-superstep state while keeping buffer
// capacity.
func (w *worker[V, M]) resetForSuperstep() {
	w.sentMsgs, w.sentBytes, w.netBytes, w.ops = 0, 0, 0, 0
	w.rawBytes = 0
	w.activeAfter = 0
	for p := range w.outbox {
		w.outbox[p] = w.outbox[p][:0]
	}
	if w.combSeen != nil {
		w.combEpoch++
		if w.combEpoch == 0 { // epoch wrapped: stamps are stale, really clear
			clear(w.combSeen)
			w.combEpoch = 1
		}
	}
	if w.pendingAg != nil {
		clear(w.pendingAg)
	}
}

// send routes a message to dst's partition. With a combiner configured
// it combines at the sender: each (worker, destination vertex) pair
// keeps a single outbox slot, so combined workloads never materialise
// O(messages) envelopes and the send buffer holds only what actually
// crosses the wire — Giraph's sender-side combine. Combining is in
// send order within the worker, and the barrier later merges workers in
// source-partition order, so the overall merge order stays
// deterministic.
func (w *worker[V, M]) send(dst graph.VertexID, m M) {
	cfg := &w.e.cfg
	p := w.e.part.Owner[dst]
	size := m.Size()
	w.ops += 1 + size/64 // the compute work of producing the message
	w.rawBytes += size + messageEnvelope
	if cfg.Combine != nil {
		if w.combSeen[dst] == w.combEpoch {
			slot := &w.outbox[p][w.combSlot[dst]].msg
			old := (*slot).Size()
			cfg.Combine(slot, m)
			if delta := (*slot).Size() - old; delta != 0 {
				w.sentBytes += delta
				if int(w.e.nodeOfPart[p]) != w.node {
					w.netBytes += delta
				}
			}
			return
		}
		w.combSeen[dst] = w.combEpoch
		w.combSlot[dst] = int32(len(w.outbox[p]))
	}
	w.outbox[p] = append(w.outbox[p], envelope[M]{dst, m})
	size += messageEnvelope
	w.sentMsgs++
	w.sentBytes += size
	if int(w.e.nodeOfPart[p]) != w.node {
		w.netBytes += size
	}
}

// inbox is one shard's messages for a superstep in one flat buffer:
// the messages of the shard's i-th member are msgs[off[i]:off[i+1]],
// in delivery order. It keeps its capacity from superstep to
// superstep, so a run allocates its inboxes once they have grown to
// the largest superstep's volume. Offsets are int32: 2^31 messages
// into one shard in one superstep would first fill gigabytes of outbox
// envelopes.
type inbox[M any] struct {
	off  []int32 // one entry per member, plus one
	cur  []int32 // delivery cursor, one entry per member
	msgs []M
}

// of returns the messages of the shard's i-th member. The slice's
// capacity ends with them, so a program that appends to it copies.
func (in *inbox[M]) of(i int) []M {
	return in.msgs[in.off[i]:in.off[i+1]:in.off[i+1]]
}

// deliver rebuilds in, the inbox of shard dp, from what every worker
// sent it, taken in source-shard order: it counts each member's
// messages, takes their prefix sum and scatters, so a member's
// messages arrive in source-shard order, then send order. With a
// combiner a member gets one slot, which folds its messages in that
// order. loc maps a vertex to its index among the shard's members.
func deliver[V, M partition.Sized](in *inbox[M], workers []*worker[V, M], dp int, loc []int32, combine func(*M, M)) {
	off, cur := in.off, in.cur
	clear(off)
	for _, w := range workers {
		for _, env := range w.outbox[dp] {
			if i := loc[env.dst]; combine == nil {
				off[i+1]++
			} else {
				off[i+1] = 1
			}
		}
	}
	for i := range cur {
		off[i+1] += off[i]
	}
	total := int(off[len(cur)])
	in.msgs = slices.Grow(in.msgs[:0], total)[:total]
	copy(cur, off)
	for _, w := range workers {
		for _, env := range w.outbox[dp] {
			i := loc[env.dst]
			if c := cur[i]; combine == nil || c == off[i] {
				in.msgs[c] = env.msg
				cur[i] = c + 1
			} else {
				combine(&in.msgs[c-1], env.msg)
			}
		}
	}
}

// engine holds a run's state.
type engine[V, M partition.Sized] struct {
	g         *graph.Graph
	cfg       Config[V, M]
	part      *partition.Partitioning
	values    []V
	superstep int
	aggPrev   map[string]float64
	// nodeOfPart[p] is the machine hosting shard p: workers are placed
	// round-robin, so with shards == nodes it is the identity and the
	// engine's historical byte stream is reproduced exactly. Network
	// cost is charged only when a message crosses machines — two shards
	// co-hosted on one node exchange messages through memory.
	nodeOfPart []int32
}

// valueBytes is what the vertex values of a checkpoint occupy.
func (e *engine[V, M]) valueBytes() int64 {
	var b int64
	for _, v := range e.values {
		b += v.Size()
	}
	return b
}

// Run executes cfg over g on the simulated hardware, appending phases
// to profile (which may be nil).
func Run[V, M partition.Sized](g *graph.Graph, hw cluster.Hardware, cfg Config[V, M], profile *cluster.ExecutionProfile) (*Result[V], error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("pregel: Config.Program is required")
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	e := &engine[V, M]{g: g, cfg: cfg, aggPrev: map[string]float64{}}
	n := g.NumVertices()
	e.values = make([]V, n)
	if cfg.InitialValue != nil {
		for v := 0; v < n; v++ {
			e.values[v] = cfg.InitialValue(graph.VertexID(v))
		}
	}
	active := make([]bool, n)
	var activeCount int64
	for v := 0; v < n; v++ {
		active[v] = cfg.InitiallyActive == nil || cfg.InitiallyActive(graph.VertexID(v))
		if active[v] {
			activeCount++
		}
	}

	// Placement: the profile may carry an explicit partitioning (any
	// strategy, any shard count); without one, the engine's historical
	// layout — one hash shard per machine — is reproduced exactly.
	// Shards are assigned to machines round-robin, so the worker count
	// can exceed (oversharding) or undershoot the node count.
	part := profile.Partitioning()
	if part == nil {
		part = partition.HashPartitioning(n, hw.Nodes)
	} else if part.NumVertices() != n {
		part = part.ResizeFor(n) // EVO regrows the graph between runs
	}
	e.part = part
	parts := part.Shards
	members := part.Members
	e.nodeOfPart = make([]int32, parts)
	for p := 0; p < parts; p++ {
		e.nodeOfPart[p] = int32(p % hw.Nodes)
	}

	// Long-lived per-run state: workers (with their outboxes and
	// contexts), the shards' inboxes, and the barrier scratch arrays
	// are allocated once and reused every superstep. loc[v] is v's
	// index among its shard's members, its slot in the shard's inbox.
	workers := make([]*worker[V, M], parts)
	inboxes := make([]inbox[M], parts)
	loc := make([]int32, n)
	for p := 0; p < parts; p++ {
		w := &worker[V, M]{e: e, node: int(e.nodeOfPart[p]), outbox: make([][]envelope[M], parts)}
		if cfg.Combine != nil {
			w.combSlot = make([]int32, n)
			w.combSeen = make([]uint32, n)
		}
		w.ctx.w = w
		workers[p] = w
		inboxes[p] = inbox[M]{off: make([]int32, len(members[p])+1), cur: make([]int32, len(members[p]))}
		for i, v := range members[p] {
			loc[v] = int32(i)
		}
	}
	partOps := make([]int64, parts)
	inboxBytesPer := make([]int64, parts)
	// Per-machine accumulators: memory limits (send buffers, inboxes)
	// and straggler skew act at node granularity — co-hosted shards
	// share their machine's memory and cores.
	nodeSend := make([]int64, hw.Nodes)
	nodeInbox := make([]int64, hw.Nodes)
	nodeOps := make([]int64, hw.Nodes)
	// pendingMsgs counts messages delivered at the last barrier, so the
	// termination check is O(1) instead of rescanning every vertex.
	var pendingMsgs int64
	var st Stats

	// Observability: span + counter handles resolved once per run; all
	// nil (single-branch no-ops) when no session is attached. Counters
	// advance at each barrier, never inside the vertex loop, so the
	// sampler sees message/byte volume grow per superstep while the
	// hot path stays allocation-free.
	sess := profile.Session()
	tr := sess.T()
	reg := sess.R()
	cMsgs := reg.Counter("pregel.messages")
	cMsgBytes := reg.Counter("pregel.msg_bytes")
	cNet := reg.Counter("pregel.net_bytes")
	cCalls := reg.Counter("pregel.compute_calls")
	cSupersteps := reg.Counter("pregel.supersteps")
	gInbox := reg.Gauge("pregel.peak_inbox_bytes")
	gSend := reg.Gauge("pregel.peak_send_bytes")
	runSpan := tr.Begin("pregel:run", obs.KindRun, -1, obs.SpanRef{})
	defer tr.End(runSpan)

	// Fault injection: when a chaos run attaches an injector through
	// the profile, the engine writes a checkpoint (vertex values plus
	// in-flight messages, to the DFS) every plan.CheckpointEvery
	// supersteps — Giraph's periodic checkpointing (Section 3.1) — and
	// keeps the latest in memory; an injected crash rolls back to it,
	// replaying the lost supersteps, or to the initial state when the
	// plan sets no cadence. Snapshots are maintained only under
	// injection, so fault-free runs pay nothing. A snapshot copies
	// values and messages, so a V or M that is a plain value needs no
	// care; one that holds a pointer (algo.ListMsg's slice) must be
	// treated as immutable — replaced via SetValue or a new message,
	// never mutated through — for restore to reproduce fault-free
	// results exactly. Every shipped algorithm follows this rule.
	inj := profile.Injector()
	ckEvery := inj.CheckpointEvery()
	cRestores := reg.Counter("checkpoint.restore")
	cRedelivered := reg.Counter("msg.redelivered")
	var snap *snapshot[V, M]
	var attempts map[int]int // per-superstep attempt number (injection metadata, survives restore)
	if inj != nil {
		attempts = make(map[int]int)
		snap = e.capture(active, activeCount, inboxes, pendingMsgs, st)
	}

	if profile != nil && !cfg.SkipSetup {
		profile.AddPhase(cluster.Phase{
			Name: "pregel:setup", Kind: cluster.PhaseSetup,
			Jobs: 1, Tasks: parts,
		})
	}

	for {
		if cfg.MaxSupersteps > 0 && e.superstep >= cfg.MaxSupersteps {
			break
		}
		if activeCount == 0 && pendingMsgs == 0 {
			break
		}
		if inj != nil {
			a := attempts[e.superstep]
			lost, err := inj.Attempt(fault.Site{Engine: "pregel", Op: "superstep", Step: e.superstep, Task: fault.Any, Attempt: a})
			if err != nil {
				return nil, err
			}
			if lost {
				attempts[e.superstep] = a + 1
				// A worker died: all in-memory state on that node is
				// gone, so every worker rolls back to the last
				// checkpoint and the lost supersteps replay. The replay
				// re-appends its superstep phases — that repeated work
				// is exactly the recovery overhead the chaos report
				// measures.
				crashed := e.superstep
				activeCount, pendingMsgs, st = snap.restoreInto(e, active, inboxes)
				cRestores.Add(1)
				if profile != nil {
					profile.AddPhase(cluster.Phase{
						Name: fmt.Sprintf("restore-%d", crashed), Kind: cluster.PhaseRead,
						DiskRead: snap.stateBytes, Tasks: parts, Barriers: 1,
					})
				}
				continue
			}
		}
		ssSpan := tr.Begin("superstep", obs.KindSuperstep, int64(e.superstep), runSpan)

		// One goroutine per partition: each owns its worker's state.
		par.For(parts, parts, func(_, p int) {
			w := workers[p]
			w.resetForSuperstep()
			ctx := &w.ctx
			in := &inboxes[p]
			for i, v := range members[p] {
				msgs := in.of(i)
				if !active[v] && len(msgs) == 0 {
					continue
				}
				ctx.id = v
				ctx.active = true
				var inBytes int64
				for _, m := range msgs {
					inBytes += m.Size()
				}
				w.ops += 1 + inBytes/64
				cfg.Program(ctx, msgs)
				active[v] = ctx.active
				if ctx.active {
					w.activeAfter++
				}
			}
			partOps[p] = w.ops
		})

		// Barrier: merge outboxes deterministically (source partition
		// order), apply the combiner, gather aggregators and stats.
		agg := map[string]float64{}
		var superMsgs, superBytes, superNet, maxSend int64
		activeCount = 0
		clear(nodeSend)
		for p := 0; p < parts; p++ {
			w := workers[p]
			superMsgs += w.sentMsgs
			superBytes += w.sentBytes
			superNet += w.netBytes
			activeCount += w.activeAfter
			nodeSend[w.node] += w.rawBytes
			for k, x := range w.pendingAg {
				agg[k] += x
			}
		}
		for _, b := range nodeSend {
			if b > maxSend {
				maxSend = b
			}
		}
		pendingMsgs = superMsgs
		if maxSend > st.PeakSendBytes {
			st.PeakSendBytes = maxSend
		}
		if cfg.SendLimitPerNode > 0 && maxSend > cfg.SendLimitPerNode {
			tr.End(ssSpan)
			// Bytes, not MB: down-scaled runs sit far below 1 MB on
			// both sides and must still show which figure is larger.
			return nil, fmt.Errorf("pregel: superstep %d send buffer %d bytes exceeds per-node budget %d bytes: %w",
				e.superstep, maxSend, cfg.SendLimitPerNode, cluster.ErrOutOfMemory)
		}
		// Deliver per destination partition in parallel; each
		// destination partition drains all source outboxes in order
		// into its flat inbox. Injected drops are acked-and-retransmitted
		// (cost, not data loss — BSP delivery is reliable) and injected
		// delays stall an extra barrier, so both show up as overhead
		// without perturbing the algorithm.
		var retransBytes, delayedBundles int64
		par.For(parts, parts, func(_, dp int) {
			if inj != nil {
				for sp := 0; sp < parts; sp++ {
					bundle := workers[sp].outbox[dp]
					if len(bundle) == 0 {
						continue
					}
					site := fault.Site{Engine: "pregel", Op: "deliver", Step: e.superstep, Task: sp*parts + dp}
					if inj.DropAt(site) {
						var bb int64
						for _, env := range bundle {
							bb += env.msg.Size() + messageEnvelope
						}
						atomic.AddInt64(&retransBytes, bb)
					}
					if inj.DelayAt(site) {
						atomic.AddInt64(&delayedBundles, 1)
					}
				}
			}
			in := &inboxes[dp]
			deliver(in, workers, dp, loc, cfg.Combine)
			var bytes int64
			for _, m := range in.msgs {
				bytes += m.Size() + messageEnvelope
			}
			inboxBytesPer[dp] = bytes
		})
		if retransBytes > 0 || delayedBundles > 0 {
			cRedelivered.Add(retransBytes)
			if profile != nil {
				profile.AddPhase(cluster.Phase{
					Name: fmt.Sprintf("superstep-%d:redeliver", e.superstep), Kind: cluster.PhaseShuffle,
					Net: retransBytes, Barriers: int(delayedBundles),
				})
			}
		}

		var maxInbox, totalOps, maxOps int64
		clear(nodeInbox)
		clear(nodeOps)
		for p := 0; p < parts; p++ {
			nd := e.nodeOfPart[p]
			nodeInbox[nd] += inboxBytesPer[p]
			totalOps += partOps[p]
			ops := partOps[p]
			if inj != nil {
				// An injected straggler slows one worker's share of the
				// superstep, stretching the barrier wait — skew, not
				// wrong answers.
				if f, ok := inj.StragglerAt(fault.Site{Engine: "pregel", Op: "worker", Step: e.superstep, Task: p}); ok {
					ops = int64(float64(ops) * f)
				}
			}
			nodeOps[nd] += ops
		}
		for nd := 0; nd < hw.Nodes; nd++ {
			if nodeInbox[nd] > maxInbox {
				maxInbox = nodeInbox[nd]
			}
			if nodeOps[nd] > maxOps {
				maxOps = nodeOps[nd]
			}
		}
		if maxInbox > st.PeakInboxBytes {
			st.PeakInboxBytes = maxInbox
		}
		st.TotalMessages += superMsgs
		st.TotalMsgBytes += superBytes
		st.NetBytes += superNet
		var superCalls int64
		for p := 0; p < parts; p++ {
			superCalls += int64(len(members[p]))
		}
		st.ComputeCalls += superCalls

		// Registry counters mirror Stats exactly (same names as the
		// struct fields, pregel.* prefixed), advanced once per barrier.
		cMsgs.Add(superMsgs)
		cMsgBytes.Add(superBytes)
		cNet.Add(superNet)
		cCalls.Add(superCalls)
		cSupersteps.Add(1)
		gInbox.SetMax(maxInbox)
		gSend.SetMax(maxSend)

		if profile != nil {
			profile.AddPhase(cluster.Phase{
				Name: fmt.Sprintf("superstep-%d", e.superstep), Kind: cluster.PhaseCompute,
				Ops: totalOps, MaxPartOps: hw.BusiestWorker(maxOps, totalOps),
				Net: superNet, Barriers: 1,
			})
			if ckEvery > 0 && (e.superstep+1)%ckEvery == 0 {
				var inflight int64
				for p := 0; p < parts; p++ {
					inflight += inboxBytesPer[p]
				}
				profile.AddPhase(cluster.Phase{
					Name: fmt.Sprintf("checkpoint-%d", e.superstep), Kind: cluster.PhaseWrite,
					DiskWrite: e.valueBytes() + inflight, Barriers: 1,
				})
			}
		}

		tr.End(ssSpan)
		e.aggPrev = agg
		e.superstep++
		if ckEvery > 0 && e.superstep%ckEvery == 0 {
			snap = e.capture(active, activeCount, inboxes, pendingMsgs, st)
		}
	}

	st.Supersteps = e.superstep
	if profile != nil {
		profile.Iterations = e.superstep
	}
	return &Result[V]{Values: e.values, Stats: st, Aggregators: e.aggPrev}, nil
}

// snapshot is an in-memory checkpoint: everything needed to restart
// the run at the beginning of superstep `superstep`. Its slices are
// fresh copies of the live arrays, so repeated restores from the same
// snapshot stay intact; what a value or message points to is shared
// (immutable by contract).
type snapshot[V, M partition.Sized] struct {
	superstep   int
	values      []V
	active      []bool
	activeCount int64
	inboxes     []inbox[M] // off and msgs only
	pendingMsgs int64
	aggPrev     map[string]float64
	st          Stats
	stateBytes  int64 // what a DFS restore streams back in
}

func (e *engine[V, M]) capture(active []bool, activeCount int64, inboxes []inbox[M], pendingMsgs int64, st Stats) *snapshot[V, M] {
	s := &snapshot[V, M]{
		superstep:   e.superstep,
		values:      slices.Clone(e.values),
		active:      slices.Clone(active),
		activeCount: activeCount,
		inboxes:     make([]inbox[M], len(inboxes)),
		pendingMsgs: pendingMsgs,
		aggPrev:     maps.Clone(e.aggPrev),
		st:          st,
		stateBytes:  e.valueBytes(),
	}
	for p, in := range inboxes {
		s.inboxes[p] = inbox[M]{off: slices.Clone(in.off), msgs: slices.Clone(in.msgs)}
		for _, m := range in.msgs {
			s.stateBytes += m.Size()
		}
	}
	return s
}

// restoreInto copies the checkpoint back into the engine's working
// state, keeping the live arrays' capacity, and returns the restored
// loop-local state.
func (s *snapshot[V, M]) restoreInto(e *engine[V, M], active []bool, inboxes []inbox[M]) (activeCount, pendingMsgs int64, st Stats) {
	copy(e.values, s.values)
	copy(active, s.active)
	for p := range inboxes {
		copy(inboxes[p].off, s.inboxes[p].off)
		inboxes[p].msgs = append(inboxes[p].msgs[:0], s.inboxes[p].msgs...)
	}
	e.aggPrev = maps.Clone(s.aggPrev)
	e.superstep = s.superstep
	return s.activeCount, s.pendingMsgs, s.st
}
