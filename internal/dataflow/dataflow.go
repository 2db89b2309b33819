// Package dataflow is a parallel data-flow engine modelled on
// Stratosphere 0.2 (Section 3.1 of the paper): the PACT second-order
// operators the algorithm programs use (Map, Reduce, CoGroup) compiled
// into a Nephele-style DAG of tasks connected by channels. The plan
// compiler uses code annotations (the PACT "output contracts") to avoid
// repartitioning: an operator that declares it preserves keys lets the
// next key-based operator consume its output over an in-memory channel
// instead of shuffling over the network — the optimisation the paper
// credits for Stratosphere's order-of-magnitude advantage over Hadoop.
package dataflow

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Value is a record payload; Size reports serialised bytes.
type Value interface {
	Size() int64
}

// Record is one keyed record flowing through the plan.
type Record struct {
	Key   int64
	Value Value
}

func recBytes(r Record) int64 { return 10 + r.Value.Size() }

// Dataset is a materialised record collection.
type Dataset []Record

// Bytes returns the dataset's serialised size.
func (d Dataset) Bytes() int64 {
	var n int64
	for _, r := range d {
		n += recBytes(r)
	}
	return n
}

// Collector receives operator output.
type Collector struct {
	out      []Record
	bytes    int64
	extraOps int64
}

// Charge adds explicit computation work beyond the per-record
// baseline (quadratic user functions such as STATS intersections).
func (c *Collector) Charge(ops int64) { c.extraOps += ops }

// Collect appends an output record.
func (c *Collector) Collect(key int64, v Value) {
	c.out = append(c.out, Record{key, v})
	c.bytes += 10 + v.Size()
}

// User function types (the PACT first-order functions).
type (
	// MapFunc processes one record.
	MapFunc func(in Record, out *Collector)
	// ReduceFunc processes all records of one key.
	ReduceFunc func(key int64, in []Record, out *Collector)
	// CoGroupFunc processes the full left and right groups of one key.
	CoGroupFunc func(key int64, left, right []Record, out *Collector)
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
type Node struct {
	id         int
	kind       opKind
	name       string
	annotation Annotation
	inputs     []*Node

	mapFn     MapFunc
	reduceFn  ReduceFunc
	coGroupFn CoGroupFunc

	source     Dataset
	sourceSize int64
	writes     bool // sink only: materialise to the DFS
}

// Plan is a DAG of operators.
type Plan struct {
	name  string
	nodes []*Node
	sinks []*Node
}

// NewPlan creates an empty plan.
func NewPlan(name string) *Plan { return &Plan{name: name} }

func (p *Plan) add(n *Node) *Node {
	n.id = len(p.nodes)
	p.nodes = append(p.nodes, n)
	return n
}

// Source adds an input dataset; diskBytes is its on-DFS size (0 for
// in-memory intermediates carried between iterations).
func (p *Plan) Source(name string, d Dataset, diskBytes int64) *Node {
	return p.add(&Node{kind: opSource, name: name, source: d, sourceSize: diskBytes})
}

// Map adds a Map contract.
func (p *Plan) Map(name string, in *Node, fn MapFunc, ann Annotation) *Node {
	return p.add(&Node{kind: opMap, name: name, inputs: []*Node{in}, mapFn: fn, annotation: ann})
}

// Reduce adds a Reduce contract (grouping by key).
func (p *Plan) Reduce(name string, in *Node, fn ReduceFunc, ann Annotation) *Node {
	return p.add(&Node{kind: opReduce, name: name, inputs: []*Node{in}, reduceFn: fn, annotation: ann})
}

// CoGroup adds a CoGroup contract.
func (p *Plan) CoGroup(name string, left, right *Node, fn CoGroupFunc, ann Annotation) *Node {
	return p.add(&Node{kind: opCoGroup, name: name, inputs: []*Node{left, right}, coGroupFn: fn, annotation: ann})
}

// Sink marks a node's output as a plan result. writeToDFS controls
// whether the result is materialised to the DFS (final outputs) or
// kept in memory (iteration state).
func (p *Plan) Sink(in *Node, writeToDFS bool) *Node {
	n := p.add(&Node{kind: opSink, name: "sink:" + in.name, inputs: []*Node{in}, writes: writeToDFS})
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
type interim struct {
	parts   []Dataset // partitioned by key hash when keyed
	keyed   bool      // true if partitioned by key
	records int64
	bytes   int64
}

// Execute runs the plan as one Nephele job and returns the datasets of
// each sink, in Sink() order.
func (e *Engine) Execute(p *Plan) ([]Dataset, error) {
	if len(p.sinks) == 0 {
		return nil, fmt.Errorf("dataflow: plan %q has no sinks", p.name)
	}
	par := e.HW.Workers()
	if par < 1 {
		par = 1
	}
	if pt := e.Profile.Partitioning(); pt != nil {
		par = pt.Shards
		e.keyOwner = pt.OwnerOf
		e.exactNet = true
	} else {
		modulus := par
		e.keyOwner = func(k int64) int { return int(uint64(k) % uint64(modulus)) }
		e.exactNet = false
	}
	e.par = par
	inj := e.Profile.Injector()
	planStep := e.planSeq
	e.planSeq++

	e.Profile.AddPhase(cluster.Phase{
		Name: p.name + ":deploy", Kind: cluster.PhaseSetup,
		Jobs: 1, Tasks: len(p.nodes) * par / max(1, len(p.nodes)),
	})

	// Observability: one plan span, one child span per operator
	// (nil single-branch no-ops without a session).
	sess := e.Profile.Session()
	tr := sess.T()
	reg := sess.R()
	planSpan := tr.Begin(p.name, obs.KindJob, reg.Counter("dataflow.plans").Get(), obs.SpanRef{})
	defer tr.End(planSpan)

	results := make([]*interim, len(p.nodes))
	var outputs []Dataset

	for _, n := range p.nodes {
		opSpan := tr.Begin(n.name, obs.KindOperator, int64(n.id), planSpan)
		switch n.kind {
		case opSource:
			parts := e.split(n.source)
			results[n.id] = &interim{parts: parts, keyed: true,
				records: int64(len(n.source)), bytes: n.source.Bytes()}
			if n.sourceSize > 0 {
				e.Profile.AddPhase(cluster.Phase{
					Name: n.name + ":read", Kind: cluster.PhaseRead,
					DiskRead: n.sourceSize,
				})
			}

		case opMap:
			in := e.channel(n, results[n.inputs[0].id], false)
			out, err := e.runOp(n, planStep, inj, func() (*interim, int64, int64) {
				out := &interim{parts: make([]Dataset, par), keyed: n.annotation == SameKey && in.keyed}
				var ops, maxOps int64
				var mu sync.Mutex
				partition.ParallelFor(par, func(i int) {
					var c Collector
					var local int64
					for _, r := range in.parts[i] {
						local += 1 + recBytes(r)/64
						n.mapFn(r, &c)
					}
					local += c.extraOps
					mu.Lock()
					out.parts[i] = c.out
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
			in := e.channel(n, results[n.inputs[0].id], true)
			out, err := e.runOp(n, planStep, inj, func() (*interim, int64, int64) {
				out := &interim{parts: make([]Dataset, par), keyed: n.annotation == SameKey}
				var ops, maxOps int64
				var mu sync.Mutex
				partition.ParallelFor(par, func(i int) {
					var c Collector
					local := groupApply(in.parts[i], func(key int64, group []Record) {
						n.reduceFn(key, group, &c)
					})
					local += c.extraOps
					mu.Lock()
					out.parts[i] = c.out
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
			left := e.channel(n, results[n.inputs[0].id], true)
			right := e.channel(n, results[n.inputs[1].id], true)
			out, err := e.runOp(n, planStep, inj, func() (*interim, int64, int64) {
				out := &interim{parts: make([]Dataset, par), keyed: n.annotation == SameKey}
				var ops, maxOps int64
				var mu sync.Mutex
				partition.ParallelFor(par, func(i int) {
					var c Collector
					local := coGroupParts(n.coGroupFn, in2(left, i), in2(right, i), &c)
					local += c.extraOps
					mu.Lock()
					out.parts[i] = c.out
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
func (e *Engine) runOp(n *Node, planStep int, inj *fault.Injector, compute func() (*interim, int64, int64)) (*interim, error) {
	for attempt := 0; ; attempt++ {
		out, ops, maxOps := compute()
		if inj != nil {
			site := fault.Site{Engine: "dataflow", Op: n.name, Step: planStep, Task: n.id, Attempt: attempt}
			if kind, ok := inj.FailAt(site); ok {
				e.Profile.Session().R().Counter("task.retries").Add(1)
				e.Profile.AddPhase(cluster.Phase{
					Name: n.name + ":recovery", Kind: cluster.PhaseCompute,
					Ops: ops, MaxPartOps: maxOps,
				})
				e.Profile.AddPhase(cluster.Phase{
					Name: n.name + ":restart", Kind: cluster.PhaseSetup,
					Tasks: fault.BackoffUnits(attempt),
				})
				if attempt+1 >= inj.MaxAttempts() {
					return nil, fmt.Errorf("dataflow: operator %q (node %d): injected %v persisted through %d attempts: %w",
						n.name, n.id, kind, attempt+1, fault.ErrBudgetExhausted)
				}
				continue
			}
			if f, ok := inj.StragglerAt(site); ok {
				// A straggling subtask stretches the operator's barrier
				// wait; the answer is unaffected.
				maxOps = int64(float64(maxOps) * f)
			}
		}
		e.addCompute(n, out, ops, maxOps)
		return out, nil
	}
}

func in2(in *interim, i int) Dataset {
	if i < len(in.parts) {
		return in.parts[i]
	}
	return nil
}

// channel materialises an input for an operator, repartitioning when
// the operator needs key grouping and the producer did not preserve a
// key partitioning. Repartitioning is a network shuffle; preserved
// partitionings ride an in-memory channel for free — the optimiser.
func (e *Engine) channel(n *Node, in *interim, needKeyed bool) *interim {
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
						remote += recBytes(r)
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
	return &interim{parts: e.split(in.parts...), keyed: true,
		records: in.records, bytes: in.bytes}
}

func (e *Engine) addCompute(n *Node, out *interim, ops, maxOps int64) {
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
func coGroupParts(fn CoGroupFunc, left, right Dataset, c *Collector) int64 {
	left, right = partition.SortByKey(left, recKey), partition.SortByKey(right, recKey)
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
// returning the op count. The sort returns a copy: DAG inputs are
// shared by several consumers.
func groupApply(part Dataset, fn func(key int64, group []Record)) int64 {
	sorted := partition.SortByKey(part, recKey)
	var ops int64
	for i := 0; i < len(sorted); {
		j := i
		var groupBytes int64
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			groupBytes += recBytes(sorted[j])
			j++
		}
		ops += 1 + groupBytes/64 + int64(j-i)
		fn(sorted[i].Key, sorted[i:j])
		i = j
	}
	return ops
}

func recKey(r Record) int64 { return r.Key }

// split buckets the records of every part, in order, by the engine's
// key router (key hash without an explicit partitioning, shard
// ownership with one).
func (e *Engine) split(parts ...Dataset) []Dataset {
	return partition.SplitByOwner(e.par, func(r Record) int { return e.keyOwner(r.Key) }, parts...)
}
