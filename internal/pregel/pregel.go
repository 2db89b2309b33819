// Package pregel is a vertex-centric Bulk Synchronous Parallel engine
// modelled on Giraph 0.2 (Section 3.1 of the paper): supersteps with
// global barriers, message passing with optional combiners,
// aggregators, vote-to-halt with message reactivation, and a fully
// in-memory graph. Only active vertices compute in each superstep —
// the "dynamic computation mechanism" the paper credits for Giraph's
// BFS performance. The engine measures message volume and per-node
// memory demand, which is what makes Giraph's paper-documented crashes
// (STATS on WikiTalk, everything but EVO on Friendster) reproducible.
package pregel

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Message is a value sent between vertices. Size reports serialised
// bytes for network and memory accounting.
type Message interface {
	Size() int64
}

// Value is a vertex state value.
type Value interface {
	Size() int64
}

// Combiner merges two messages destined for the same vertex,
// shrinking network traffic and inbox memory (Giraph's message
// combiner).
type Combiner interface {
	Combine(a, b Message) Message
}

// Program is the user computation, invoked once per active vertex per
// superstep. Implementations must be safe for concurrent calls on
// different vertices.
type Program interface {
	Compute(ctx *Context, msgs []Message)
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(ctx *Context, msgs []Message)

// Compute implements Program.
func (f ProgramFunc) Compute(ctx *Context, msgs []Message) { f(ctx, msgs) }

// Config configures a run.
type Config struct {
	// Program is the vertex computation.
	Program Program
	// Combiner is optional.
	Combiner Combiner
	// MaxSupersteps bounds the run (0 = no bound).
	MaxSupersteps int
	// InitialValue seeds each vertex's state (nil = nil values).
	InitialValue func(v graph.VertexID) Value
	// InitiallyActive selects the starting active set (nil = all).
	InitiallyActive func(v graph.VertexID) bool
	// MessageEnvelope is the per-message framing overhead in bytes
	// (destination ID plus headers); Giraph's wire format uses ~16.
	MessageEnvelope int64
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
	// CheckpointEvery writes a fault-tolerance checkpoint (vertex
	// values plus in-flight messages, to the DFS) every N supersteps —
	// Giraph's periodic checkpointing (Section 3.1). Zero disables it,
	// unless an active fault injector supplies a cadence hint. Under
	// fault injection the checkpoint is also retained in memory and an
	// injected worker crash rolls the engine back to it, replaying the
	// lost supersteps; with no checkpoint the run restarts from the
	// initial state. Values and Messages must be treated as immutable
	// (replaced via SetValue, never mutated in place) for restore to
	// reproduce fault-free results exactly — every shipped algorithm
	// already follows this rule.
	CheckpointEvery int
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
type Result struct {
	Values []Value
	Stats  Stats
	// Aggregators holds the final value of every aggregator.
	Aggregators map[string]float64
}

// Context is the per-vertex view passed to Program.Compute. The engine
// reuses one Context per worker across vertices and supersteps; it is
// only valid for the duration of the Compute call.
type Context struct {
	w      *worker
	id     graph.VertexID
	active bool
}

// ID returns the vertex ID.
func (c *Context) ID() graph.VertexID { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.w.e.superstep }

// NumVertices returns |V|.
func (c *Context) NumVertices() int { return c.w.e.g.NumVertices() }

// Out returns the vertex's out-neighbours.
func (c *Context) Out() []graph.VertexID { return c.w.e.g.Out(c.id) }

// In returns the vertex's in-neighbours (equal to Out for undirected
// graphs).
func (c *Context) In() []graph.VertexID { return c.w.e.g.In(c.id) }

// Directed reports whether the underlying graph is directed.
func (c *Context) Directed() bool { return c.w.e.g.Directed() }

// OutDegree returns the vertex's out-degree.
func (c *Context) OutDegree() int { return c.w.e.g.OutDegree(c.id) }

// Value returns the vertex state.
func (c *Context) Value() Value { return c.w.e.values[c.id] }

// SetValue replaces the vertex state.
func (c *Context) SetValue(v Value) { c.w.e.values[c.id] = v }

// Send delivers a message to dst at the next superstep.
func (c *Context) Send(dst graph.VertexID, m Message) {
	c.w.send(dst, m)
}

// SendToNeighbors sends m along every out-edge.
func (c *Context) SendToNeighbors(m Message) {
	for _, dst := range c.w.e.g.Out(c.id) {
		c.w.send(dst, m)
	}
}

// VoteToHalt deactivates the vertex until a message arrives.
func (c *Context) VoteToHalt() { c.active = false }

// Aggregate adds x into the named sum-aggregator, visible via
// Aggregated from the next superstep.
func (c *Context) Aggregate(name string, x float64) {
	if c.w.pendingAg == nil {
		c.w.pendingAg = make(map[string]float64)
	}
	c.w.pendingAg[name] += x
}

// Aggregated returns the named aggregator's value from the previous
// superstep.
func (c *Context) Aggregated(name string) float64 { return c.w.e.aggPrev[name] }

// Charge adds explicit computation work beyond the per-message
// baseline (quadratic per-vertex functions such as STATS
// intersections).
func (c *Context) Charge(ops int64) { c.w.ops += ops }

type envelope struct {
	dst graph.VertexID
	msg Message
}

type worker struct {
	e    *Engine
	part int
	node int // machine hosting this worker's shard
	// outbox[p] collects messages for partition p this superstep. The
	// slices are truncated, not freed, at each superstep boundary so
	// their capacity is reused for the whole run.
	outbox [][]envelope
	// combSlot[dst] is the slot of dst's single envelope in
	// outbox[partitionOf(dst)] when a combiner is configured: the
	// sender combines in place instead of materialising one envelope
	// per message. combSeen stamps slots with the superstep epoch so
	// resetting is O(1) instead of clearing all n entries.
	combSlot  []int32
	combSeen  []uint32
	combEpoch uint32
	// ctx is the reusable per-vertex view handed to Program.Compute.
	ctx Context
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
func (w *worker) resetForSuperstep() {
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
func (w *worker) send(dst graph.VertexID, m Message) {
	p := w.e.partitionOf(dst)
	w.ops += 1 + m.Size()/64 // the compute work of producing the message
	w.rawBytes += m.Size() + w.e.cfg.MessageEnvelope
	if comb := w.e.cfg.Combiner; comb != nil {
		if w.combSeen[dst] == w.combEpoch {
			i := w.combSlot[dst]
			old := w.outbox[p][i].msg
			merged := comb.Combine(old, m)
			w.outbox[p][i].msg = merged
			if delta := merged.Size() - old.Size(); delta != 0 {
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
	w.outbox[p] = append(w.outbox[p], envelope{dst, m})
	size := m.Size() + w.e.cfg.MessageEnvelope
	w.sentMsgs++
	w.sentBytes += size
	if int(w.e.nodeOfPart[p]) != w.node {
		w.netBytes += size
	}
}

// Engine holds a run's state.
type Engine struct {
	g         *graph.Graph
	hw        cluster.Hardware
	cfg       Config
	part      *partition.Partitioning
	values    []Value
	superstep int
	aggPrev   map[string]float64
	// nodeOfPart[p] is the machine hosting shard p: workers are placed
	// round-robin, so with shards == nodes it is the identity and the
	// engine's historical byte stream is reproduced exactly. Network
	// cost is charged only when a message crosses machines — two shards
	// co-hosted on one node exchange messages through memory.
	nodeOfPart []int32
}

func (e *Engine) partitionOf(v graph.VertexID) int {
	return int(e.part.Owner[v])
}

// Run executes cfg over g on the simulated hardware, appending phases
// to profile (which may be nil).
func Run(g *graph.Graph, hw cluster.Hardware, cfg Config, profile *cluster.ExecutionProfile) (*Result, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("pregel: Config.Program is required")
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if cfg.MessageEnvelope == 0 {
		cfg.MessageEnvelope = 16
	}
	e := &Engine{g: g, hw: hw, cfg: cfg, aggPrev: map[string]float64{}}
	n := g.NumVertices()
	e.values = make([]Value, n)
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
	// contexts), the inbox slices, and the barrier scratch arrays are
	// allocated once and reused every superstep.
	workers := make([]*worker, parts)
	for p := 0; p < parts; p++ {
		w := &worker{e: e, part: p, node: int(e.nodeOfPart[p]), outbox: make([][]envelope, parts)}
		if cfg.Combiner != nil {
			w.combSlot = make([]int32, n)
			w.combSeen = make([]uint32, n)
		}
		w.ctx.w = w
		workers[p] = w
	}
	inbox := make([][]Message, n)
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
	// the profile, the engine keeps its latest checkpoint in memory and
	// an injected crash rolls back to it, replaying the lost supersteps
	// — Giraph's checkpoint-restore. Snapshots are maintained only under
	// injection, so fault-free runs pay nothing.
	inj := profile.Injector()
	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = inj.CheckpointHint()
	}
	cRestores := reg.Counter("checkpoint.restore")
	cRedelivered := reg.Counter("msg.redelivered")
	var snap *snapshot
	var attempts map[int]int // per-superstep attempt number (injection metadata, survives restore)
	if inj != nil {
		attempts = make(map[int]int)
		snap = capture(0, e.values, active, activeCount, inbox, pendingMsgs, e.aggPrev, st)
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
			if kind, ok := inj.FailAt(fault.Site{Engine: "pregel", Op: "superstep", Step: e.superstep, Task: fault.Any, Attempt: a}); ok {
				attempts[e.superstep] = a + 1
				if a+1 >= fault.DefaultMaxAttempts {
					return nil, fmt.Errorf("pregel: superstep %d: injected %v persisted through %d attempts: %w",
						e.superstep, kind, a+1, fault.ErrBudgetExhausted)
				}
				// A worker died: all in-memory state on that node is
				// gone, so every worker rolls back to the last
				// checkpoint and the lost supersteps replay. The replay
				// re-appends its superstep phases — that repeated work
				// is exactly the recovery overhead the chaos report
				// measures.
				crashed := e.superstep
				activeCount, pendingMsgs, st = snap.restoreInto(e, active, inbox)
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

		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int, w *worker) {
				defer wg.Done()
				w.resetForSuperstep()
				ctx := &w.ctx
				for _, v := range members[p] {
					msgs := inbox[v]
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
					cfg.Program.Compute(ctx, msgs)
					active[v] = ctx.active
					if ctx.active {
						w.activeAfter++
					}
					// Keep the consumed slice's capacity: the next
					// barrier delivers into it.
					inbox[v] = msgs[:0]
				}
				partOps[p] = w.ops
			}(p, workers[p])
		}
		wg.Wait()

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
		// destination partition drains all source outboxes in order.
		// Injected drops are acked-and-retransmitted (cost, not data
		// loss — BSP delivery is reliable) and injected delays stall an
		// extra barrier, so both show up as overhead without perturbing
		// the algorithm.
		var retransBytes, delayedBundles int64
		var dwg sync.WaitGroup
		for dp := 0; dp < parts; dp++ {
			dwg.Add(1)
			go func(dp int) {
				defer dwg.Done()
				var bytes int64
				for sp := 0; sp < parts; sp++ {
					bundle := workers[sp].outbox[dp]
					if inj != nil && len(bundle) > 0 {
						site := fault.Site{Engine: "pregel", Op: "deliver", Step: e.superstep, Task: sp*parts + dp}
						if inj.DropAt(site) {
							var bb int64
							for _, env := range bundle {
								bb += env.msg.Size() + cfg.MessageEnvelope
							}
							atomic.AddInt64(&retransBytes, bb)
						}
						if inj.DelayAt(site) {
							atomic.AddInt64(&delayedBundles, 1)
						}
					}
					for _, env := range bundle {
						if box := inbox[env.dst]; cfg.Combiner != nil && len(box) == 1 {
							box[0] = cfg.Combiner.Combine(box[0], env.msg)
						} else {
							inbox[env.dst] = append(box, env.msg)
						}
					}
				}
				for _, v := range members[dp] {
					for _, m := range inbox[v] {
						bytes += m.Size() + cfg.MessageEnvelope
					}
				}
				inboxBytesPer[dp] = bytes
			}(dp)
		}
		dwg.Wait()
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
				var stateBytes int64
				for _, v := range e.values {
					if v != nil {
						stateBytes += v.Size()
					}
				}
				var inflight int64
				for p := 0; p < parts; p++ {
					inflight += inboxBytesPer[p]
				}
				profile.AddPhase(cluster.Phase{
					Name: fmt.Sprintf("checkpoint-%d", e.superstep), Kind: cluster.PhaseWrite,
					DiskWrite: stateBytes + inflight, Barriers: 1,
				})
			}
		}

		tr.End(ssSpan)
		e.aggPrev = agg
		e.superstep++
		if inj != nil && ckEvery > 0 && e.superstep%ckEvery == 0 {
			snap = capture(e.superstep, e.values, active, activeCount, inbox, pendingMsgs, e.aggPrev, st)
		}
	}

	st.Supersteps = e.superstep
	if profile != nil {
		profile.Iterations = e.superstep
	}
	return &Result{Values: e.values, Stats: st, Aggregators: e.aggPrev}, nil
}

// snapshot is an in-memory checkpoint: everything needed to restart
// the run at the beginning of superstep `superstep`. Individual Values
// and Messages are shared with the live arrays (they are immutable by
// contract); the slices themselves are fresh copies, so repeated
// restores from the same snapshot stay intact.
type snapshot struct {
	superstep   int
	values      []Value
	active      []bool
	activeCount int64
	inbox       [][]Message
	pendingMsgs int64
	aggPrev     map[string]float64
	st          Stats
	stateBytes  int64 // what a DFS restore streams back in
}

func capture(superstep int, values []Value, active []bool, activeCount int64,
	inbox [][]Message, pendingMsgs int64, aggPrev map[string]float64, st Stats) *snapshot {
	s := &snapshot{
		superstep:   superstep,
		values:      append([]Value(nil), values...),
		active:      append([]bool(nil), active...),
		activeCount: activeCount,
		inbox:       make([][]Message, len(inbox)),
		pendingMsgs: pendingMsgs,
		aggPrev:     maps.Clone(aggPrev),
		st:          st,
	}
	for v, msgs := range inbox {
		if len(msgs) > 0 {
			s.inbox[v] = append([]Message(nil), msgs...)
			for _, m := range msgs {
				s.stateBytes += m.Size()
			}
		}
	}
	for _, v := range s.values {
		if v != nil {
			s.stateBytes += v.Size()
		}
	}
	return s
}

// restoreInto copies the checkpoint back into the engine's working
// state, keeping the live arrays' capacity, and returns the restored
// loop-local state.
func (s *snapshot) restoreInto(e *Engine, active []bool, inbox [][]Message) (activeCount, pendingMsgs int64, st Stats) {
	copy(e.values, s.values)
	copy(active, s.active)
	for v := range inbox {
		inbox[v] = append(inbox[v][:0], s.inbox[v]...)
	}
	e.aggPrev = maps.Clone(s.aggPrev)
	e.superstep = s.superstep
	return s.activeCount, s.pendingMsgs, s.st
}
