// Package mapreduce is a working MapReduce engine modelled on Hadoop
// 0.20 (Section 3.1 of the paper): mappers, a hash-partitioned
// sort/shuffle, optional combiners, reducers, counters, and an
// iterative job driver that — like Hadoop — materialises the entire
// dataset to the DFS between consecutive jobs (charged as the disk
// bytes of a materialise phase; the engine holds no file-system
// object). Algorithms written against this engine genuinely execute;
// the engine meanwhile records an execution profile (records, bytes,
// job launches) that the cluster cost model converts to simulated
// DAS-4 time.
package mapreduce

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Value is a record payload. Size reports its serialised byte
// footprint, used for every disk, network, and memory account.
type Value interface {
	Size() int64
}

// KV is one key-value record. Keys are int64 (vertex IDs in the graph
// jobs).
type KV struct {
	Key   int64
	Value Value
}

// Dataset is an in-memory materialisation of a DFS file's records.
type Dataset []KV

// Bytes returns the serialised size of the dataset: per record, the
// key (8 bytes framed to ~10 in text form) plus the value.
func (d Dataset) Bytes() int64 {
	var n int64
	for _, kv := range d {
		n += 10 + kv.Value.Size()
	}
	return n
}

// Mapper transforms one input record into any number of output
// records.
type Mapper interface {
	Map(key int64, value Value, out *Emitter)
}

// Reducer folds all values sharing a key into output records. It is
// also the interface for combiners.
type Reducer interface {
	Reduce(key int64, values []Value, out *Emitter)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key int64, value Value, out *Emitter)

// Map implements Mapper.
func (f MapperFunc) Map(key int64, value Value, out *Emitter) { f(key, value, out) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key int64, values []Value, out *Emitter)

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key int64, values []Value, out *Emitter) { f(key, values, out) }

// Counters are Hadoop-style job counters, used by drivers for
// convergence checks. They are backed by an obs.Registry — the same
// typed counters the engines report through — but each job keeps its
// own registry so per-job semantics (a driver checking "updated" == 0
// after one job) are unchanged. The zero Counters value is inert.
type Counters struct {
	reg *obs.Registry
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{reg: obs.NewRegistry()} }

// Add increments a counter.
func (c *Counters) Add(name string, n int64) { c.reg.Counter(name).Add(n) }

// Get reads a counter.
func (c *Counters) Get(name string) int64 { return c.reg.Counter(name).Get() }

// merge folds src into c. Under fault injection each task attempt
// accumulates into a scratch counter set that is merged only when the
// attempt succeeds, so a retried task bumps every counter exactly once
// — the idempotence Hadoop's drivers (convergence checks on "updated")
// depend on.
func (c *Counters) merge(src *Counters) {
	if c == nil || src == nil || src.reg == nil {
		return
	}
	for name, v := range src.reg.Snapshot().Counters {
		c.Add(name, v)
	}
}

// Emitter collects records emitted by a map or reduce function and
// accounts their sizes.
type Emitter struct {
	records  []KV
	bytes    int64
	extraOps int64
	counters *Counters
}

// Charge adds explicit computation work (record operations) beyond the
// per-record parsing baseline — e.g. STATS neighbourhood
// intersections, whose cost is quadratic in degree.
func (e *Emitter) Charge(ops int64) { e.extraOps += ops }

// Emit appends an output record.
func (e *Emitter) Emit(key int64, v Value) {
	e.records = append(e.records, KV{key, v})
	e.bytes += 10 + v.Size()
}

// Incr bumps a job counter.
func (e *Emitter) Incr(name string, n int64) { e.counters.Add(name, n) }

// JobConfig describes one MapReduce job.
type JobConfig struct {
	Name     string
	Mapper   Mapper
	Reducer  Reducer
	Combiner Reducer // optional, applied to each map task's output
	// NumMaps and NumReduces default to the engine's worker count.
	NumMaps, NumReduces int
}

// JobStats summarises one executed job.
type JobStats struct {
	Name                            string
	MapInputRecords, MapOutputRecs  int64
	MapOutputBytes                  int64
	CombineOutputRecs               int64
	ReduceInputGroups, ReduceOutput int64
	ShuffleBytes                    int64
	// SpillBytes is map output written to disk beyond the sort buffer
	// (and read back during the merge).
	SpillBytes  int64
	OutputBytes int64
	// TaskRetries counts task attempts that failed and were re-executed
	// (nonzero only under fault injection); SpeculativeTasks counts
	// straggling tasks re-executed speculatively on another slot.
	TaskRetries      int64
	SpeculativeTasks int64
	Counters         *Counters
}

// Engine executes jobs on a simulated cluster.
type Engine struct {
	HW cluster.Hardware

	// SortBufferBytes is the per-task in-memory sort buffer; map
	// output beyond it spills to disk and is merged back during the
	// shuffle. The paper's configuration uses 1.5 GB and observes that
	// its BFS experiments do not spill ("Hadoop does not use spills,
	// so it has no significant I/O within the iteration"); zero keeps
	// that default.
	SortBufferBytes int64

	// Profile accumulates phases across all jobs run by this engine;
	// drivers read it after the final job.
	Profile *cluster.ExecutionProfile

	// PeakShufflePerNode tracks the largest single-job shuffle volume
	// landing on one node, for the memory model.
	PeakShufflePerNode int64
	// PeakJobBytesPerNode tracks the largest per-node data volume of
	// any single job (input split + map output + shuffle input), which
	// is what blows task memory on shuffle-heavy jobs (the paper's
	// Hadoop/YARN crashes on STATS over DotaLeague).
	PeakJobBytesPerNode int64

	// jobSeq numbers the jobs this engine has run; it is the Step field
	// of every fault-injection site, so a plan can target "the third
	// job of the driver loop".
	jobSeq int
}

// New returns an engine on the given hardware.
func New(hw cluster.Hardware) *Engine {
	return &Engine{HW: hw, Profile: &cluster.ExecutionProfile{}}
}

// opsFor estimates record-operations for processing a record of the
// given size: one invocation plus parsing cost proportional to bytes.
func opsFor(size int64) int64 { return 1 + size/64 }

// Run executes one job over the input dataset and returns the output
// dataset. inputBytes is the DFS size of the input (what the map phase
// reads); the output's DFS size is measured from the emitted records.
func (e *Engine) Run(cfg JobConfig, input Dataset, inputBytes int64) (Dataset, *JobStats, error) {
	if cfg.Mapper == nil || cfg.Reducer == nil {
		return nil, nil, fmt.Errorf("mapreduce: job %q needs a mapper and a reducer", cfg.Name)
	}
	// A partitioning on the profile makes placement explicit: task
	// counts default to the shard count, input splits follow vertex
	// ownership, and the reducer for a key is the key's shard — so
	// shuffle locality is exact rather than the (n-1)/n average.
	part := e.Profile.Partitioning()
	nMaps := cfg.NumMaps
	if nMaps <= 0 {
		nMaps = e.HW.Workers()
		if part != nil {
			nMaps = part.Shards
		}
	}
	nReds := cfg.NumReduces
	if nReds <= 0 {
		nReds = e.HW.Workers()
		if part != nil {
			nReds = part.Shards
		}
	}
	keyOwner := func(k int64) int { return int(uint64(k) % uint64(nReds)) }
	if part != nil && nReds == part.Shards {
		keyOwner = part.OwnerOf
	}

	sortBuffer := e.SortBufferBytes
	if sortBuffer <= 0 {
		sortBuffer = 1536 << 20 // the paper's 1.5 GB memory limit for sorting
	}

	stats := &JobStats{Name: cfg.Name, Counters: NewCounters()}

	// Observability: one job span with map / sort-shuffle / reduce /
	// materialise phase spans; engine counters (mapreduce.* names
	// mirroring JobStats fields) advance at each phase boundary. All
	// handles are nil single-branch no-ops without a session.
	sess := e.Profile.Session()
	tr := sess.T()
	reg := sess.R()
	jobSpan := tr.Begin(cfg.Name, obs.KindJob, reg.Counter("mapreduce.jobs").Get(), obs.SpanRef{})
	defer tr.End(jobSpan)

	// Fault injection: Hadoop's model is per-task-attempt retry — a
	// failed attempt's output and counters are discarded wholesale and
	// the task relaunches (with capped exponential backoff) on another
	// slot, up to the attempt budget; stragglers get a speculative
	// second copy whose work is wasted when the original wins. Both
	// show up as recovery overhead in the profile, never in the output.
	inj := e.Profile.Injector()
	jobStep := e.jobSeq
	e.jobSeq++
	var wastedOps, relaunchUnits int64
	var firstErr error

	// ---- Map phase -------------------------------------------------
	// Only non-empty splits become tasks, so small inputs spawn fewer
	// map tasks rather than phantom empty ones. Without a partitioning
	// the input splits contiguously (classic Hadoop file splits); with
	// one, each map task reads the records its shard owns, and
	// splitShard remembers which shard (and therefore node) that is.
	var splits []Dataset
	var splitShard []int
	if part != nil && nMaps == part.Shards {
		for s, b := range partition.SplitByOwner(nMaps, func(kv KV) int { return part.OwnerOf(kv.Key) }, input) {
			if len(b) > 0 {
				splits = append(splits, b)
				splitShard = append(splitShard, s)
			}
		}
	} else {
		splits = partition.SplitContiguous(input, nMaps)
	}
	nMapTasks := len(splits)
	partitions := make([][][]KV, nMapTasks) // [map][reduce][]KV
	// bundleBytes[m][r] is the serialised size of partitions[m][r],
	// taken once when the bundle is split: the shuffle, network and
	// refetch accounts all sum bundles.
	bundleBytes := make([][]int64, nMapTasks)
	var mapOps, maxMapOps int64
	var mu sync.Mutex

	mapSpan := tr.Begin("map", obs.KindPhase, -1, jobSpan)
	partition.ParallelFor(nMapTasks, func(m int) {
		var em *Emitter
		var buf *[]KV
		var ops int64
		for attempt := 0; ; attempt++ {
			// A failed attempt drops its emitter, buffer included.
			buf = emitBuffers.Get().(*[]KV)
			em = &Emitter{records: *buf, counters: stats.Counters}
			var scratch *Counters
			if inj != nil {
				scratch = NewCounters()
				em.counters = scratch
			}
			ops = 0
			for _, kv := range splits[m] {
				ops += opsFor(kv.Value.Size())
				cfg.Mapper.Map(kv.Key, kv.Value, em)
			}
			ops += em.extraOps
			if inj == nil {
				break
			}
			site := fault.Site{Engine: "mapreduce", Op: "map", Step: jobStep, Task: m, Attempt: attempt}
			if kind, ok := inj.FailAt(site); ok {
				mu.Lock()
				stats.TaskRetries++
				wastedOps += ops
				relaunchUnits += int64(fault.BackoffUnits(attempt))
				if attempt+1 >= inj.MaxAttempts() && firstErr == nil {
					firstErr = fmt.Errorf("mapreduce: job %q map task %d: injected %v persisted through %d attempts: %w",
						cfg.Name, m, kind, attempt+1, fault.ErrBudgetExhausted)
				}
				mu.Unlock()
				if attempt+1 >= inj.MaxAttempts() {
					return
				}
				continue
			}
			stats.Counters.merge(scratch)
			if _, slow := inj.StragglerAt(site); slow {
				mu.Lock()
				stats.SpeculativeTasks++
				wastedOps += ops
				relaunchUnits++
				mu.Unlock()
			}
			break
		}
		// Partition map output by the key's owner (key hash without an
		// explicit partitioning). The bundles are copies, so the map
		// output buffer goes back to the pool, cleared so that no stale
		// Value pins garbage.
		parts := partition.SplitByOwner(nReds, func(kv KV) int { return keyOwner(kv.Key) }, em.records)
		outRecs, outBytes := int64(len(em.records)), em.bytes
		clear(em.records)
		*buf = em.records[:0]
		emitBuffers.Put(buf)

		sizes := make([]int64, nReds)
		var combineOut int64
		for p := range parts {
			if cfg.Combiner == nil {
				sizes[p] = Dataset(parts[p]).Bytes()
				continue
			}
			parts[p], sizes[p] = runGroupFold(cfg.Combiner, parts[p], stats.Counters)
			combineOut += int64(len(parts[p]))
			ops += int64(len(parts[p]))
		}
		partitions[m] = parts
		bundleBytes[m] = sizes

		var spill int64
		if outBytes > sortBuffer {
			spill = outBytes - sortBuffer
		}

		mu.Lock()
		stats.MapInputRecords += int64(len(splits[m]))
		stats.MapOutputRecs += outRecs
		stats.MapOutputBytes += outBytes
		stats.CombineOutputRecs += combineOut
		stats.SpillBytes += spill
		mapOps += ops
		if ops > maxMapOps {
			maxMapOps = ops
		}
		mu.Unlock()
	})

	tr.End(mapSpan)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	reg.Counter("mapreduce.map_input_records").Add(stats.MapInputRecords)
	reg.Counter("mapreduce.map_output_records").Add(stats.MapOutputRecs)
	reg.Counter("mapreduce.map_output_bytes").Add(stats.MapOutputBytes)
	reg.Counter("mapreduce.combine_output_records").Add(stats.CombineOutputRecs)
	reg.Counter("mapreduce.spill_bytes").Add(stats.SpillBytes)

	// ---- Shuffle ---------------------------------------------------
	// Each reducer pulls its partition from every map task; on average
	// (n-1)/n of the bytes cross the network.
	shuffleSpan := tr.Begin("sort-shuffle", obs.KindPhase, -1, jobSpan)
	var shuffleBytes int64
	reduceInput := make([][]KV, nReds)
	reduceBytes := make([]int64, nReds)
	for r := 0; r < nReds; r++ {
		total := 0
		for m := 0; m < nMapTasks; m++ {
			total += len(partitions[m][r])
			reduceBytes[r] += bundleBytes[m][r]
		}
		buf := make([]KV, 0, total)
		for m := 0; m < nMapTasks; m++ {
			buf = append(buf, partitions[m][r]...)
		}
		reduceInput[r] = buf
		shuffleBytes += reduceBytes[r]
	}
	stats.ShuffleBytes = shuffleBytes
	remote := shuffleBytes
	if splitShard != nil {
		// Owner-aligned splits: bundle (m, r) crosses the network only
		// when map task m's shard and reducer r live on different
		// machines (shards are hosted round-robin), so partition quality
		// sets the shuffle's network bill exactly.
		remote = 0
		for m := 0; m < nMapTasks; m++ {
			mNode := splitShard[m] % e.HW.Nodes
			for r := 0; r < nReds; r++ {
				if r%e.HW.Nodes != mNode {
					remote += bundleBytes[m][r]
				}
			}
		}
	} else if e.HW.Nodes > 1 {
		// Classic splits: reducers pull from everywhere; on average
		// (n-1)/n of the bytes cross the network.
		remote = shuffleBytes * int64(e.HW.Nodes-1) / int64(e.HW.Nodes)
	}
	perNodeShuffle := shuffleBytes / int64(e.HW.Nodes)
	if perNodeShuffle > e.PeakShufflePerNode {
		e.PeakShufflePerNode = perNodeShuffle
	}
	perNodeJob := (inputBytes + stats.MapOutputBytes + shuffleBytes) / int64(e.HW.Nodes)
	if perNodeJob > e.PeakJobBytesPerNode {
		e.PeakJobBytesPerNode = perNodeJob
	}
	// Injected shuffle drops: a reducer's fetch of one partition is
	// lost and refetched from the map output on disk — pure overhead,
	// the data always arrives.
	var refetchBytes int64
	if inj != nil {
		for r := 0; r < nReds; r++ {
			if inj.DropAt(fault.Site{Engine: "mapreduce", Op: "shuffle", Step: jobStep, Task: r}) {
				refetchBytes += reduceBytes[r]
			}
		}
		reg.Counter("shuffle.refetch").Add(refetchBytes)
	}
	tr.End(shuffleSpan)
	reg.Counter("mapreduce.shuffle_bytes").Add(stats.ShuffleBytes)

	// ---- Reduce phase ----------------------------------------------
	reduceSpan := tr.Begin("reduce", obs.KindPhase, -1, jobSpan)
	outputs := make([]Dataset, nReds)
	var redOps, maxRedOps int64
	partition.ParallelFor(nReds, func(r int) {
		var em *Emitter
		var ops, groups int64
		part := partition.SortByKey(reduceInput[r], byKey)
		reduceInput[r] = nil // the sorted copy replaces it
		for attempt := 0; ; attempt++ {
			em = &Emitter{counters: stats.Counters}
			var scratch *Counters
			if inj != nil {
				scratch = NewCounters()
				em.counters = scratch
			}
			ops, groups = 0, 0
			var vals []Value // reused across groups; reducers must not retain it
			for i := 0; i < len(part); {
				j := i
				vals = vals[:0]
				var groupBytes int64
				for j < len(part) && part[j].Key == part[i].Key {
					vals = append(vals, part[j].Value)
					groupBytes += part[j].Value.Size()
					j++
				}
				ops += opsFor(groupBytes)
				cfg.Reducer.Reduce(part[i].Key, vals, em)
				groups++
				i = j
			}
			ops += em.extraOps
			if inj == nil {
				break
			}
			site := fault.Site{Engine: "mapreduce", Op: "reduce", Step: jobStep, Task: r, Attempt: attempt}
			if kind, ok := inj.FailAt(site); ok {
				mu.Lock()
				stats.TaskRetries++
				wastedOps += ops
				relaunchUnits += int64(fault.BackoffUnits(attempt))
				if attempt+1 >= inj.MaxAttempts() && firstErr == nil {
					firstErr = fmt.Errorf("mapreduce: job %q reduce task %d: injected %v persisted through %d attempts: %w",
						cfg.Name, r, kind, attempt+1, fault.ErrBudgetExhausted)
				}
				mu.Unlock()
				if attempt+1 >= inj.MaxAttempts() {
					return
				}
				continue
			}
			stats.Counters.merge(scratch)
			if _, slow := inj.StragglerAt(site); slow {
				mu.Lock()
				stats.SpeculativeTasks++
				wastedOps += ops
				relaunchUnits++
				mu.Unlock()
			}
			break
		}
		outputs[r] = em.records

		mu.Lock()
		stats.ReduceInputGroups += groups
		stats.ReduceOutput += int64(len(em.records))
		stats.OutputBytes += em.bytes
		redOps += ops
		if ops > maxRedOps {
			maxRedOps = ops
		}
		mu.Unlock()
	})

	tr.End(reduceSpan)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	reg.Counter("mapreduce.reduce_input_groups").Add(stats.ReduceInputGroups)
	reg.Counter("mapreduce.reduce_output_records").Add(stats.ReduceOutput)

	matSpan := tr.Begin("materialise", obs.KindPhase, -1, jobSpan)
	out := slices.Concat(outputs...)
	tr.End(matSpan)
	reg.Counter("mapreduce.output_bytes").Add(stats.OutputBytes)
	reg.Counter("mapreduce.jobs").Add(1)

	// ---- Profile ---------------------------------------------------
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":setup", Kind: cluster.PhaseSetup,
		Jobs: 1, Tasks: nMapTasks + nReds,
	})
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":read", Kind: cluster.PhaseRead,
		DiskRead: inputBytes,
	})
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":map", Kind: cluster.PhaseCompute,
		Ops: mapOps, MaxPartOps: scaleSkew(maxMapOps, mapOps, nMapTasks, e.HW.Workers()),
	})
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":shuffle", Kind: cluster.PhaseShuffle,
		Net: remote, DiskWrite: shuffleBytes + stats.SpillBytes,
		DiskRead: shuffleBytes + stats.SpillBytes,
	})
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":reduce", Kind: cluster.PhaseCompute,
		Ops: redOps, MaxPartOps: scaleSkew(maxRedOps, redOps, nReds, e.HW.Workers()),
	})
	e.Profile.AddPhase(cluster.Phase{
		Name: cfg.Name + ":write", Kind: cluster.PhaseWrite,
		DiskWrite: stats.OutputBytes,
	})
	if stats.TaskRetries > 0 || stats.SpeculativeTasks > 0 || refetchBytes > 0 {
		reg.Counter("task.retries").Add(stats.TaskRetries)
		reg.Counter("task.speculative").Add(stats.SpeculativeTasks)
		// Recovery overhead: the discarded attempts' compute, the
		// relaunches (backoff modelled as extra task-launch units —
		// Hadoop's barrier cost is zero, its task startup is not), and
		// the refetched shuffle partitions.
		e.Profile.AddPhase(cluster.Phase{
			Name: cfg.Name + ":recovery", Kind: cluster.PhaseCompute,
			Ops: wastedOps,
		})
		e.Profile.AddPhase(cluster.Phase{
			Name: cfg.Name + ":task-relaunch", Kind: cluster.PhaseSetup,
			Tasks: int(relaunchUnits),
		})
		if refetchBytes > 0 {
			remoteRefetch := refetchBytes
			if e.HW.Nodes > 1 {
				remoteRefetch = refetchBytes * int64(e.HW.Nodes-1) / int64(e.HW.Nodes)
			}
			e.Profile.AddPhase(cluster.Phase{
				Name: cfg.Name + ":shuffle-refetch", Kind: cluster.PhaseShuffle,
				Net: remoteRefetch, DiskRead: refetchBytes,
			})
		}
	}
	return out, stats, nil
}

// scaleSkew converts a max-per-task ops figure into max-per-worker:
// when there are more tasks than workers the busiest worker processes
// several tasks, so per-task skew washes out toward the mean.
func scaleSkew(maxTask, total int64, tasks, workers int) int64 {
	if tasks <= 0 || total == 0 {
		return 0
	}
	if tasks <= workers {
		return maxTask
	}
	// Busiest worker ≈ mean worker load, plus the excess of the
	// single busiest task over the mean task.
	meanWorker := total / int64(workers)
	meanTask := total / int64(tasks)
	excess := maxTask - meanTask
	if excess < 0 {
		excess = 0
	}
	return meanWorker + excess
}

// runGroupFold sorts records by key, groups, and applies the reducer —
// the combiner path. It returns the reducer's output and its
// serialised size.
func runGroupFold(r Reducer, records []KV, c *Counters) ([]KV, int64) {
	if len(records) == 0 {
		return records, 0
	}
	records = partition.SortByKey(records, byKey)
	em := &Emitter{counters: c}
	var vals []Value // reused across groups; reducers must not retain it
	for i := 0; i < len(records); {
		j := i
		vals = vals[:0]
		for j < len(records) && records[j].Key == records[i].Key {
			vals = append(vals, records[j].Value)
			j++
		}
		r.Reduce(records[i].Key, vals, em)
		i = j
	}
	return em.records, em.bytes
}

func byKey(kv KV) int64 { return kv.Key }

// emitBuffers recycles map tasks' output buffers: a map task's records
// are dead once they are split into per-reducer bundles, so the next
// task (of this job or the next) reuses the grown capacity instead of
// regrowing it by append.
var emitBuffers = sync.Pool{New: func() any { return new([]KV) }}
