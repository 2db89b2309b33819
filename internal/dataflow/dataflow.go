// Package dataflow is a parallel data-flow engine modelled on
// Stratosphere 0.2 (Section 3.1 of the paper): the PACT second-order
// operators the algorithm programs use (Map, Reduce, CoGroup) compiled
// into a Nephele-style DAG of tasks connected by channels. The plan
// compiler uses code annotations (the PACT "output contracts") to avoid
// repartitioning: an operator that declares it preserves keys lets the
// next key-based operator consume its output over an in-memory channel
// instead of shuffling over the network — the optimisation the paper
// credits for Stratosphere's order-of-magnitude advantage over Hadoop.
// Operators move keyed partition.Records, the record MapReduce moves
// too, and a plan's sources and sinks are partition.Datasets.
package dataflow

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// Collector receives operator output.
type Collector[V partition.Sized] struct {
	out      []partition.Record[V]
	bytes    int64
	extraOps int64
}

// Charge adds explicit computation work beyond the per-record
// baseline (quadratic user functions such as STATS intersections).
func (c *Collector[V]) Charge(ops int64) { c.extraOps += ops }

// Collect appends an output record.
func (c *Collector[V]) Collect(key int64, v V) {
	r := partition.Record[V]{Key: key, Value: v}
	c.out = append(c.out, r)
	c.bytes += r.Bytes()
}

// User function types (the PACT first-order functions).
type (
	// MapFunc processes one record.
	MapFunc[V partition.Sized] func(in partition.Record[V], out *Collector[V])
	// ReduceFunc processes all records of one key.
	ReduceFunc[V partition.Sized] func(key int64, in []partition.Record[V], out *Collector[V])
	// CoGroupFunc processes the full left and right groups of one key.
	CoGroupFunc[V partition.Sized] func(key int64, left, right []partition.Record[V], out *Collector[V])
)

// Annotation is a PACT output contract: a promise about an operator's
// output that the compiler exploits.
type Annotation int

const (
	// None: no promise; key-based consumers must repartition.
	None Annotation = iota
	// SameKey: output records keep their input record's key, so an
	// existing key-partitioning survives the operator.
	SameKey
)

type opKind int

const (
	opSource opKind = iota
	opMap
	opReduce
	opCoGroup
	opSink
)

var opNames = [...]string{"source", "map", "reduce", "cogroup", "sink"}

// Node is one operator in a plan.
type Node[V partition.Sized] struct {
	id         int
	kind       opKind
	name       string
	annotation Annotation
	inputs     []*Node[V]

	mapFn     MapFunc[V]
	reduceFn  ReduceFunc[V]
	coGroupFn CoGroupFunc[V]

	source     partition.Dataset[V]
	sourceSize int64
	writes     bool // sink only: materialise to the DFS
}

// Plan is a DAG of operators over records of value type V.
type Plan[V partition.Sized] struct {
	name  string
	nodes []*Node[V]
	sinks []*Node[V]
}

// NewPlan creates an empty plan.
func NewPlan[V partition.Sized](name string) *Plan[V] { return &Plan[V]{name: name} }

func (p *Plan[V]) add(n *Node[V]) *Node[V] {
	n.id = len(p.nodes)
	p.nodes = append(p.nodes, n)
	return n
}

// Source adds an input dataset; diskBytes is its on-DFS size (0 for
// in-memory intermediates carried between iterations).
func (p *Plan[V]) Source(name string, d partition.Dataset[V], diskBytes int64) *Node[V] {
	return p.add(&Node[V]{kind: opSource, name: name, source: d, sourceSize: diskBytes})
}

// Map adds a Map contract.
func (p *Plan[V]) Map(name string, in *Node[V], fn MapFunc[V], ann Annotation) *Node[V] {
	return p.add(&Node[V]{kind: opMap, name: name, inputs: []*Node[V]{in}, mapFn: fn, annotation: ann})
}

// Reduce adds a Reduce contract (grouping by key).
func (p *Plan[V]) Reduce(name string, in *Node[V], fn ReduceFunc[V], ann Annotation) *Node[V] {
	return p.add(&Node[V]{kind: opReduce, name: name, inputs: []*Node[V]{in}, reduceFn: fn, annotation: ann})
}

// CoGroup adds a CoGroup contract.
func (p *Plan[V]) CoGroup(name string, left, right *Node[V], fn CoGroupFunc[V], ann Annotation) *Node[V] {
	return p.add(&Node[V]{kind: opCoGroup, name: name, inputs: []*Node[V]{left, right}, coGroupFn: fn, annotation: ann})
}

// Sink marks a node's output as a plan result. writeToDFS controls
// whether the result is materialised to the DFS (final outputs) or
// kept in memory (iteration state).
func (p *Plan[V]) Sink(in *Node[V], writeToDFS bool) *Node[V] {
	n := p.add(&Node[V]{kind: opSink, name: "sink:" + in.name, inputs: []*Node[V]{in}, writes: writeToDFS})
	p.sinks = append(p.sinks, n)
	return n
}

// Engine executes plans.
type Engine struct {
	HW      cluster.Hardware
	Profile *cluster.ExecutionProfile
	// ChannelForced, when non-nil, overrides the optimiser's channel
	// choice (used by the ablation benchmarks).
	ChannelForced *ChannelType

	// planSeq numbers the plans this engine has executed; it is the
	// Step field of every fault-injection site, so a plan can target
	// "the third iteration's job".
	planSeq int

	// Per-Execute placement state (plans run sequentially): the degree
	// of parallelism and the key router. Without a partitioning on the
	// profile these are the worker count and the key-hash rule the
	// engine always used; with one, subtasks own shards and channels
	// charge network cost only for records that change machines.
	par      int
	keyOwner func(key int64) int
	exactNet bool

	// scratch is the *scratch[V] of the value type the engine last
	// ran: the plans of one engine run refill each other's split, sort
	// and operator-output arrays.
	scratch any
}

// ChannelType is how data moves between two operators.
type ChannelType int

const (
	// ChannelInMemory: co-partitioned, same task slot — no movement.
	ChannelInMemory ChannelType = iota
	// ChannelNetwork: repartition over the network.
	ChannelNetwork
	// ChannelFile: materialise via disk (Hadoop-style).
	ChannelFile
)

// New returns an engine.
func New(hw cluster.Hardware) *Engine {
	return &Engine{HW: hw, Profile: &cluster.ExecutionProfile{}}
}

// result of a node during execution.
type interim[V partition.Sized] struct {
	parts   []partition.Dataset[V] // partitioned by key hash when keyed
	keyed   bool                   // true if partitioned by key
	records int64
	bytes   int64
}

// Execute runs the plan as one Nephele job on e and returns the
// datasets of each sink, in Sink() order: fresh arrays the caller owns.
func Execute[V partition.Sized](e *Engine, p *Plan[V]) ([]partition.Dataset[V], error) {
	if len(p.sinks) == 0 {
		return nil, fmt.Errorf("dataflow: plan %q has no sinks", p.name)
	}
	dop := e.HW.Workers()
	if dop < 1 {
		dop = 1
	}
	if pt := e.Profile.Partitioning(); pt != nil {
		dop = pt.Shards
		e.keyOwner = pt.OwnerOf
		e.exactNet = true
	} else {
		e.keyOwner = func(k int64) int { return partition.HashOwner(k, dop) }
		e.exactNet = false
	}
	e.par = dop
	inj := e.Profile.Injector()
	planStep := e.planSeq
	e.planSeq++

	e.Profile.AddPhase(cluster.Phase{
		Name: p.name + ":deploy", Kind: cluster.PhaseSetup,
		Jobs: 1, Tasks: len(p.nodes) * dop / max(1, len(p.nodes)),
	})

	// Observability: one plan span, one child span per operator
	// (nil single-branch no-ops without a session).
	sess := e.Profile.Session()
	tr := sess.T()
	reg := sess.R()
	planSpan := tr.Begin(p.name, obs.KindJob, reg.Counter("dataflow.plans").Get(), obs.SpanRef{})
	defer tr.End(planSpan)

	sc := scratchFor[V](e)
	sc.size(len(p.nodes), dop)
	results := make([]*interim[V], len(p.nodes))
	var outputs []partition.Dataset[V]

	for _, n := range p.nodes {
		opSpan := tr.Begin(n.name, obs.KindOperator, int64(n.id), planSpan)
		ns := &sc.nodes[n.id]
		switch n.kind {
		case opSource:
			parts := split(e, &ns.split[0], n.source)
			results[n.id] = &interim[V]{parts: parts, keyed: true,
				records: int64(len(n.source)), bytes: n.source.Bytes()}
			if n.sourceSize > 0 {
				e.Profile.AddPhase(cluster.Phase{
					Name: n.name + ":read", Kind: cluster.PhaseRead,
					DiskRead: n.sourceSize,
				})
			}

		case opMap:
			in := channel(e, n, results[n.inputs[0].id], false, &ns.split[0])
			out, err := runOp(e, n, planStep, inj, func() (*interim[V], int64, int64) {
				out := &interim[V]{parts: make([]partition.Dataset[V], dop), keyed: n.annotation == SameKey && in.keyed}
				var ops, maxOps int64
				var mu sync.Mutex
				par.For(dop, runtime.GOMAXPROCS(0), func(_, i int) {
					c := Collector[V]{out: ns.out[i][:0]}
					var local int64
					for _, r := range in.parts[i] {
						local += 1 + r.Bytes()/64
						n.mapFn(r, &c)
					}
					local += c.extraOps
					mu.Lock()
					out.parts[i], ns.out[i] = c.out, c.out
					out.records += int64(len(c.out))
					out.bytes += c.bytes
					ops += local
					if local > maxOps {
						maxOps = local
					}
					mu.Unlock()
				})
				return out, ops, maxOps
			})
			if err != nil {
				tr.End(opSpan)
				return nil, err
			}
			results[n.id] = out

		case opReduce:
			in := channel(e, n, results[n.inputs[0].id], true, &ns.split[0])
			out, err := runOp(e, n, planStep, inj, func() (*interim[V], int64, int64) {
				out := &interim[V]{parts: make([]partition.Dataset[V], dop), keyed: n.annotation == SameKey}
				var ops, maxOps int64
				var mu sync.Mutex
				par.For(dop, runtime.GOMAXPROCS(0), func(_, i int) {
					c := Collector[V]{out: ns.out[i][:0]}
					local := groupApply(&sc.spare, in.parts[i], func(key int64, group []partition.Record[V]) {
						n.reduceFn(key, group, &c)
					})
					local += c.extraOps
					mu.Lock()
					out.parts[i], ns.out[i] = c.out, c.out
					out.records += int64(len(c.out))
					out.bytes += c.bytes
					ops += local
					if local > maxOps {
						maxOps = local
					}
					mu.Unlock()
				})
				return out, ops, maxOps
			})
			if err != nil {
				tr.End(opSpan)
				return nil, err
			}
			results[n.id] = out

		case opCoGroup:
			left := channel(e, n, results[n.inputs[0].id], true, &ns.split[0])
			right := channel(e, n, results[n.inputs[1].id], true, &ns.split[1])
			out, err := runOp(e, n, planStep, inj, func() (*interim[V], int64, int64) {
				out := &interim[V]{parts: make([]partition.Dataset[V], dop), keyed: n.annotation == SameKey}
				var ops, maxOps int64
				var mu sync.Mutex
				par.For(dop, runtime.GOMAXPROCS(0), func(_, i int) {
					c := Collector[V]{out: ns.out[i][:0]}
					local := coGroupParts(&sc.spare, n.coGroupFn, in2(left, i), in2(right, i), &c)
					local += c.extraOps
					mu.Lock()
					out.parts[i], ns.out[i] = c.out, c.out
					out.records += int64(len(c.out))
					out.bytes += c.bytes
					ops += local
					if local > maxOps {
						maxOps = local
					}
					mu.Unlock()
				})
				return out, ops, maxOps
			})
			if err != nil {
				tr.End(opSpan)
				return nil, err
			}
			results[n.id] = out

		case opSink:
			in := results[n.inputs[0].id]
			flat := slices.Concat(in.parts...)
			if n.writes {
				e.Profile.AddPhase(cluster.Phase{
					Name: n.name + ":write", Kind: cluster.PhaseWrite,
					DiskWrite: in.bytes,
				})
			}
			outputs = append(outputs, flat)
			results[n.id] = in
		}
		tr.End(opSpan)
	}
	reg.Counter("dataflow.plans").Add(1)
	return outputs, nil
}

// runOp executes one operator's compute with per-attempt restart under
// fault injection — Nephele's task restart: a failed attempt's output
// is discarded and the operator re-runs from its still-materialised
// channel inputs, so retries never change the data. The wasted work
// lands in recovery phases; an exhausted budget degrades to a clean
// typed abort of the whole plan.
func runOp[V partition.Sized](e *Engine, n *Node[V], planStep int, inj *fault.Injector, compute func() (*interim[V], int64, int64)) (*interim[V], error) {
	var out *interim[V]
	var ops, maxOps int64
	site, err := inj.Retry(fault.Site{Engine: "dataflow", Op: n.name, Step: planStep, Task: n.id}, func(int) {
		out, ops, maxOps = compute()
	}, func(attempt int) {
		e.Profile.Session().R().Counter("task.retries").Add(1)
		e.Profile.AddPhase(cluster.Phase{
			Name: n.name + ":recovery", Kind: cluster.PhaseCompute,
			Ops: ops, MaxPartOps: maxOps,
		})
		e.Profile.AddPhase(cluster.Phase{
			Name: n.name + ":restart", Kind: cluster.PhaseSetup,
			Tasks: fault.BackoffUnits(attempt),
		})
	})
	if err != nil {
		return nil, err
	}
	if f, ok := inj.StragglerAt(site); ok {
		// A straggling subtask stretches the operator's barrier wait;
		// the answer is unaffected.
		maxOps = int64(float64(maxOps) * f)
	}
	addCompute(e, n, out, ops, maxOps)
	return out, nil
}

func in2[V partition.Sized](in *interim[V], i int) partition.Dataset[V] {
	if i < len(in.parts) {
		return in.parts[i]
	}
	return nil
}

// channel materialises an input for an operator, repartitioning when
// the operator needs key grouping and the producer did not preserve a
// key partitioning. Repartitioning is a network shuffle; preserved
// partitionings ride an in-memory channel for free — the optimiser.
func channel[V partition.Sized](e *Engine, n *Node[V], in *interim[V], needKeyed bool, slot *[]partition.Record[V]) *interim[V] {
	ct := ChannelInMemory
	if needKeyed && !in.keyed {
		ct = ChannelNetwork
	}
	if e.ChannelForced != nil && ct == ChannelNetwork {
		ct = *e.ChannelForced
	}
	switch ct {
	case ChannelInMemory:
		return in
	case ChannelFile:
		e.Profile.AddPhase(cluster.Phase{
			Name: n.name + ":file-channel", Kind: cluster.PhaseShuffle,
			DiskWrite: in.bytes, DiskRead: in.bytes,
		})
		e.Profile.Session().R().Counter("dataflow.shuffle_bytes").Add(in.bytes)
	default:
		remote := in.bytes
		if e.exactNet {
			// Explicit placement: a record pays network cost only when
			// its producing subtask and its key's shard live on
			// different machines (shards are hosted round-robin) — so
			// the partitioner's cut quality sets the shuffle bill.
			remote = 0
			for i, p := range in.parts {
				iNode := i % e.HW.Nodes
				for _, r := range p {
					if e.keyOwner(r.Key)%e.HW.Nodes != iNode {
						remote += r.Bytes()
					}
				}
			}
		} else if e.HW.Nodes > 1 {
			remote = in.bytes * int64(e.HW.Nodes-1) / int64(e.HW.Nodes)
		}
		e.Profile.AddPhase(cluster.Phase{
			Name: n.name + ":shuffle", Kind: cluster.PhaseShuffle,
			Net: remote,
		})
		e.Profile.Session().R().Counter("dataflow.shuffle_bytes").Add(remote)
		// An injected drop loses the shuffle's in-flight data; the
		// channel retransmits from the producer's materialised output.
		if inj := e.Profile.Injector(); inj != nil &&
			inj.DropAt(fault.Site{Engine: "dataflow", Op: n.name, Step: e.planSeq - 1, Task: n.id}) {
			e.Profile.AddPhase(cluster.Phase{
				Name: n.name + ":reshuffle", Kind: cluster.PhaseShuffle,
				Net: remote,
			})
			e.Profile.Session().R().Counter("shuffle.refetch").Add(remote)
		}
	}
	return &interim[V]{parts: split(e, slot, in.parts...), keyed: true,
		records: in.records, bytes: in.bytes}
}

func addCompute[V partition.Sized](e *Engine, n *Node[V], out *interim[V], ops, maxOps int64) {
	e.Profile.AddPhase(cluster.Phase{
		Name: n.name + ":" + opNames[n.kind], Kind: cluster.PhaseCompute,
		Ops: ops, MaxPartOps: maxOps,
	})
	reg := e.Profile.Session().R()
	reg.Counter("dataflow.operators").Add(1)
	reg.Counter("dataflow.records").Add(out.records)
	reg.Counter("dataflow.bytes").Add(out.bytes)
}

// coGroupParts merges two key-partitioned datasets within a partition:
// both sides are stably sorted by key and walked in ascending key
// order, so each group keeps its side's partition order. Groups are
// subslices capped at their length, so an append by fn cannot clobber
// the next group.
func coGroupParts[V partition.Sized](spare *partition.Spare[partition.Record[V]], fn CoGroupFunc[V], left, right partition.Dataset[V], c *Collector[V]) int64 {
	left = partition.SortByKey(spare.Get(), left, partition.KeyOf[V])
	right = partition.SortByKey(spare.Get(), right, partition.KeyOf[V])
	defer spare.Put(left)
	defer spare.Put(right)
	var ops int64
	for i, j := 0, 0; i < len(left) || j < len(right); {
		var k int64
		switch {
		case j == len(right):
			k = left[i].Key
		case i == len(left):
			k = right[j].Key
		default:
			k = min(left[i].Key, right[j].Key)
		}
		li, rj := i, j
		for i < len(left) && left[i].Key == k {
			i++
		}
		for j < len(right) && right[j].Key == k {
			j++
		}
		ops += int64(i - li + j - rj + 1)
		fn(k, left[li:i:i], right[rj:j:j], c)
	}
	return ops
}

// groupApply sorts a partition by key and applies fn per group,
// returning the op count. The sort returns a copy, in a spare array:
// DAG inputs are shared by several consumers.
func groupApply[V partition.Sized](spare *partition.Spare[partition.Record[V]], part partition.Dataset[V], fn func(key int64, group []partition.Record[V])) int64 {
	sorted := partition.SortByKey(spare.Get(), part, partition.KeyOf[V])
	defer spare.Put(sorted)
	var ops int64
	for i := 0; i < len(sorted); {
		j := i
		var groupBytes int64
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			groupBytes += sorted[j].Bytes()
			j++
		}
		ops += 1 + groupBytes/64 + int64(j-i)
		fn(sorted[i].Key, sorted[i:j])
		i = j
	}
	return ops
}

// scratch holds the arrays a plan fills besides its sink outputs, for
// the engine's next plan to refill instead of allocating and zeroing
// fresh ones: records hold no pointer, so a stale one pins nothing,
// and the plans of an iterative program have the same shape. Arrays
// that live across operators are kept by node and partition; the
// sorts only a running operator holds come from spare. Every sink
// copies its result out, so nothing a plan returns lives in scratch.
type scratch[V partition.Sized] struct {
	nodes []nodeScratch[V]
	spare partition.Spare[partition.Record[V]]
}

// nodeScratch is one plan node's arrays. Partition i's slot is touched
// only by the goroutine running partition i.
type nodeScratch[V partition.Sized] struct {
	split [2][]partition.Record[V] // per input: its repartitioning
	out   [][]partition.Record[V]  // per partition: the operator's output
}

// scratchFor returns e's scratch for records of value type V, starting
// a fresh one when e last ran another value type.
func scratchFor[V partition.Sized](e *Engine) *scratch[V] {
	sc, ok := e.scratch.(*scratch[V])
	if !ok {
		sc = new(scratch[V])
		e.scratch = sc
	}
	return sc
}

// size gives the scratch a slot per node and, in each, per partition.
func (sc *scratch[V]) size(nodes, par int) {
	if len(sc.nodes) < nodes {
		sc.nodes = append(sc.nodes, make([]nodeScratch[V], nodes-len(sc.nodes))...)
	}
	for i := range sc.nodes[:nodes] {
		ns := &sc.nodes[i]
		if len(ns.out) < par {
			ns.out = append(ns.out, make([][]partition.Record[V], par-len(ns.out))...)
		}
	}
}

// split buckets the records of every part, in order, by the engine's
// key router (key hash without an explicit partitioning, shard
// ownership with one), refilling *slot.
func split[V partition.Sized](e *Engine, slot *[]partition.Record[V], parts ...partition.Dataset[V]) []partition.Dataset[V] {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	*slot = partition.Room(*slot, n)
	return partition.SplitByOwner(partition.Dataset[V](*slot), e.par, func(r partition.Record[V]) int { return e.keyOwner(r.Key) }, parts...)
}
