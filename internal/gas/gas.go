// Package gas is a Gather-Apply-Scatter engine modelled on distributed
// GraphLab 2.1 (Section 3.1 of the paper), run in the synchronous mode
// the paper uses. Distinctive GraphLab behaviours reproduced here:
//
//   - directed-only graph store: undirected inputs have every edge
//     represented in both directions, which doubles the edge count and
//     halves EPS on graphs like KGS (Section 4.1.1);
//   - vertex-cut partitioning with mirror replicas, whose measured
//     replication factor drives per-iteration synchronisation traffic;
//   - a single-file loading phase that throttles reading to one node —
//     the horizontal-scalability bottleneck the paper found — with the
//     multi-part "GraphLab(mp)" loader as the fix (Section 4.3.1);
//   - dynamic computation: only signalled vertices run each iteration.
//
// Each iteration runs its vertices in contiguous ranges, one per
// processor, through par.For.
//
// The engine is generic over the vertex value V and the gather
// accumulator A: values live in a typed []V, and each worker folds a
// vertex's gathers into one A it keeps across vertices, iterations and
// failed attempts, so nothing is boxed per edge or per vertex. The
// modelled wire sizes come from the program (ValueSize, AccumSize),
// not from the Go values.
package gas

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// Program is a GAS vertex program over vertex values V and a gather
// accumulator A. Methods must be safe for concurrent invocation on
// different vertices.
type Program[V, A any] interface {
	// Gather folds the in-edge (src -> v) of an active vertex v into
	// *acc and reports whether the edge contributed (false leaves *acc
	// untouched). has reports whether *acc already holds a
	// contribution for v; when it is false, *acc still holds whatever
	// the worker's previous vertex (or a failed attempt) left there, so
	// the program must overwrite it instead of merging into it. The
	// engine folds left to right over In (then Out under GatherBoth).
	Gather(acc *A, has bool, src, v graph.VertexID, srcVal, vVal V) bool
	// Apply computes v's new value from the folded accumulator; has is
	// false if no edge contributed, and *acc is then stale.
	Apply(v graph.VertexID, old V, acc *A, has bool) V
	// Scatter is called for every out-edge (v -> dst) of v after Apply,
	// and reports whether dst should be signalled (activated) for the
	// next iteration.
	Scatter(v, dst graph.VertexID, newVal, dstVal V) bool
	// ValueSize and AccumSize are the modelled wire sizes of a value
	// and of a folded accumulator (mirror synchronisation, ghost
	// fetches, finalize).
	ValueSize(V) int64
	AccumSize(*A) int64
}

// Config configures a run.
type Config[V, A any] struct {
	Program       Program[V, A]
	MaxIterations int
	InitialValue  func(v graph.VertexID) V
	// InitiallyActive selects the starting active set (nil = all).
	InitiallyActive func(v graph.VertexID) bool
	// MultiPartLoading enables the GraphLab(mp) input loader: the input
	// is pre-split into one piece per machine, parallelising the load
	// across nodes (but not across cores — each machine has a single
	// loader, which is why vertical scaling does not speed loading up).
	MultiPartLoading bool
	// InputBytes is the on-disk size of the input file(s) for the
	// loading phase.
	InputBytes int64
	// GatherBoth gathers over in- and out-edges of directed graphs
	// (GraphLab's ALL_EDGES gather, used for weak connectivity); it is
	// a no-op for undirected graphs, whose adjacency is already
	// symmetric.
	GatherBoth bool
	// ScatterBoth scatters over both directions of directed graphs.
	ScatterBoth bool
	// AfterIteration, when non-nil, runs at each iteration's global
	// barrier with the fresh values (GraphLab's termination
	// aggregation); returning true stops the engine.
	AfterIteration func(iter int, values []V) (stop bool)
}

// Stats summarises measured behaviour.
type Stats struct {
	Iterations        int
	GatherEdges       int64
	ApplyCalls        int64
	ScatterEdges      int64
	NetBytes          int64
	ReplicationFactor float64
	PeakMemPerNode    int64
}

// Result is the outcome of a run.
type Result[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes cfg over g on the simulated hardware, appending phases
// to profile (which may be nil).
func Run[V, A any](g *graph.Graph, hw cluster.Hardware, cfg Config[V, A], profile *cluster.ExecutionProfile) (*Result[V], error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("gas: Config.Program is required")
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	prog := cfg.Program
	n := g.NumVertices()
	values := make([]V, n)
	if cfg.InitialValue != nil {
		for v := 0; v < n; v++ {
			values[v] = cfg.InitialValue(graph.VertexID(v))
		}
	}
	// Active sets are 64-bit bitsets: the hot loop word-skips over
	// inactive regions instead of testing one bool per vertex, which is
	// what makes sparse-frontier iterations (BFS tails, SSSP buckets)
	// cheap. Iteration order over set bits is ascending, exactly the
	// order the historical []bool loop used, so results are unchanged.
	active := graph.NewBitset(n)
	var activeCount int
	for v := 0; v < n; v++ {
		if cfg.InitiallyActive == nil || cfg.InitiallyActive(graph.VertexID(v)) {
			active.Set(graph.VertexID(v))
			activeCount++
		}
	}

	// Observability handles (nil single-branch no-ops without a
	// session); counters advance once per iteration barrier.
	sess := profile.Session()
	tr := sess.T()
	reg := sess.R()
	cIters := reg.Counter("gas.iterations")
	cGather := reg.Counter("gas.gather_edges")
	cApply := reg.Counter("gas.apply_calls")
	cScatter := reg.Counter("gas.scatter_edges")
	cNet := reg.Counter("gas.net_bytes")
	gPeakMem := reg.Gauge("gas.peak_mem_per_node")
	runSpan := tr.Begin("gas:run", obs.KindRun, -1, obs.SpanRef{})
	defer tr.End(runSpan)

	// Fault injection: GraphLab's synchronous engine commits an
	// iteration atomically at its barrier, so an injected failure
	// mid-iteration discards the attempt's double-buffered state and
	// restarts the iteration from the committed values — nothing
	// partial ever lands, which is what keeps chaos runs byte-identical.
	inj := profile.Injector()
	cRetries := reg.Counter("task.retries")

	// ---- Partitioning (replication + locality accounting) ----------
	// By default edges are hashed to machines (GraphLab's random
	// vertex-cut): a vertex is replicated on every machine that holds
	// one of its edges, and each mirror synchronises with its master
	// every iteration the vertex participates. A partitioning carried
	// on the profile replaces that layout: vertex-cut strategies keep
	// the mirror protocol (with their own replica sets), edge-cut
	// strategies drop mirrors and instead pay per-edge network cost for
	// remote gathers and scatter signals.
	partSpan := tr.Begin("gas:partition", obs.KindPhase, -1, runSpan)
	part := profile.Partitioning()
	if part == nil {
		part = partition.VertexCutPartitioning(g, hw.Nodes)
	} else if part.NumVertices() != n {
		part = part.ResizeFor(n) // EVO regrows the graph between runs
	}
	shards := part.Shards
	vertexCut := part.IsVertexCut()
	owner := part.Owner
	replicas := part.ReplicaCounts(g)
	var replicaSum int64
	for _, r := range replicas {
		replicaSum += int64(r)
	}
	replFactor := 1.0
	if n > 0 {
		replFactor = float64(replicaSum) / float64(n)
	}
	tr.End(partSpan)
	reg.Gauge("gas.vertex_replicas").SetMax(replicaSum)

	// ---- Loading phase ----------------------------------------------
	if profile != nil {
		profile.AddPhase(cluster.Phase{
			Name: "gas:setup", Kind: cluster.PhaseSetup, Jobs: 1, Tasks: hw.Nodes,
		})
		loaders := 1
		if cfg.MultiPartLoading {
			loaders = hw.Nodes
		}
		parseOps := int64(n) + g.AdjSize()
		profile.AddPhase(cluster.Phase{
			Name: "gas:load", Kind: cluster.PhaseRead,
			DiskRead: cfg.InputBytes, IONodes: loaders,
			Ops: parseOps, MaxPartOps: parseOps / int64(loaders),
			// Loaded edges are shipped to their vertex-cut owners.
			Net: cfg.InputBytes,
		})
	}

	st := Stats{ReplicationFactor: replFactor}
	iter := 0

	// Double-buffered per-run state, allocated once and reused every
	// iteration: the next active set, the new value array, the global
	// per-machine op counters, and per-worker scratch (op counters,
	// signalled list, bothNeighbors buffer, gather accumulator).
	nextActive := graph.NewBitset(n)
	newValues := make([]V, n)
	partOps := make([]int64, shards)
	nodeOps := make([]int64, hw.Nodes)
	// Each iteration cuts [0, n) into tasks contiguous ranges of size
	// vertices, one per processor (fewer when n is small).
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	size := max(1, (n+workers-1)/workers)
	tasks := (n + size - 1) / size
	scratch := make([]workerScratch[A], tasks)
	for w := range scratch {
		scratch[w].partOps = make([]int64, shards)
	}

	for {
		if cfg.MaxIterations > 0 && iter >= cfg.MaxIterations {
			break
		}
		if activeCount == 0 {
			break
		}
		iterSpan := tr.Begin("iteration", obs.KindSuperstep, int64(iter), runSpan)

		var totalOps, maxOps int64
		var gatherEdges, scatterEdges, applyCalls, netBytes int64
		site, err := inj.Retry(fault.Site{Engine: "gas", Op: "iteration", Step: iter, Task: fault.Any}, func(attempt int) {
			if attempt > 0 {
				// Discard the failed attempt's double-buffered state and
				// rerun the iteration from the committed values.
				nextActive.Zero()
			}
			copy(newValues, values)
			clear(partOps)
			activeCount = 0 // recounted from signalled vertices below
			gatherEdges, scatterEdges, applyCalls, netBytes = 0, 0, 0, 0

			var mu sync.Mutex

			par.For(tasks, tasks, func(w, t int) {
				lo, hi := t*size, min(t*size+size, n)
				var lg, ls, la, lnet, lops int64
				sc := &scratch[w]
				localPartOps := sc.partOps
				clear(localPartOps)
				signalled := sc.signalled[:0]
				active.Range(lo, hi, func(v graph.VertexID) {
					vo := owner[v]
					// Gather over in-edges (plus out-edges under GatherBoth
					// on directed graphs), folded into the worker's
					// accumulator: has is false until an edge contributes.
					acc, has := &sc.acc, false
					gatherFrom := g.In(v)
					if cfg.GatherBoth && g.Directed() {
						sc.both = bothNeighborsInto(g, v, sc.both[:0])
						gatherFrom = sc.both
					}
					for _, u := range gatherFrom {
						if !vertexCut && owner[u] != vo {
							// Edge-cut: reading a remote neighbour's value
							// fetches its ghost copy over the network.
							lnet += prog.ValueSize(values[u]) + 8
						}
						if prog.Gather(acc, has, u, v, values[u], values[v]) {
							has = true
						}
						lg++
						lops++
					}
					// Apply.
					nv := prog.Apply(v, values[v], acc, has)
					newValues[v] = nv
					la++
					lops++
					// Mirror synchronisation: the master ships the new
					// value to every mirror (gather results came the other
					// way — count both directions).
					if vertexCut {
						if r := int64(replicas[v]) - 1; r > 0 {
							sz := prog.ValueSize(nv) + 8
							if has {
								sz += prog.AccumSize(acc)
							}
							lnet += r * sz
						}
					}
					// Scatter over out-edges (plus in-edges under
					// ScatterBoth on directed graphs).
					scatterTo := g.Out(v)
					if cfg.ScatterBoth && g.Directed() {
						sc.both = bothNeighborsInto(g, v, sc.both[:0])
						scatterTo = sc.both
					}
					for _, dst := range scatterTo {
						ls++
						lops++
						if prog.Scatter(v, dst, nv, values[dst]) {
							signalled = append(signalled, dst)
							if !vertexCut && owner[dst] != vo {
								// Edge-cut: signalling a remote owner is a
								// small control message.
								lnet += 16
							}
						}
					}
					localPartOps[vo] += lops
					lops = 0
				})
				sc.signalled = signalled
				mu.Lock()
				gatherEdges += lg
				scatterEdges += ls
				applyCalls += la
				netBytes += lnet
				for i, o := range localPartOps {
					partOps[i] += o
				}
				for _, dst := range signalled {
					if !nextActive.Get(dst) {
						nextActive.Set(dst)
						activeCount++
					}
				}
				mu.Unlock()
			})

			// Shards are hosted round-robin on machines; barrier skew is
			// set by the busiest machine, summing its co-hosted shards.
			// With shards == nodes (the default) this is the identity.
			totalOps, maxOps = 0, 0
			clear(nodeOps)
			for s, o := range partOps {
				totalOps += o
				nodeOps[s%hw.Nodes] += o
			}
			for _, o := range nodeOps {
				if o > maxOps {
					maxOps = o
				}
			}
		}, func(int) {
			cRetries.Add(1)
			if profile != nil {
				// The failed attempt's full pass is wasted work.
				profile.AddPhase(cluster.Phase{
					Name: fmt.Sprintf("gas:iter-%d:recovery", iter), Kind: cluster.PhaseCompute,
					Ops: totalOps, MaxPartOps: hw.BusiestWorker(maxOps, totalOps),
					Net: netBytes, Barriers: 1,
				})
			}
		})
		if err != nil {
			tr.End(iterSpan)
			return nil, err
		}
		if f, ok := inj.StragglerAt(site); ok {
			// A straggling machine stretches the barrier wait.
			maxOps = int64(float64(maxOps) * f)
		}

		st.GatherEdges += gatherEdges
		st.ScatterEdges += scatterEdges
		st.ApplyCalls += applyCalls
		st.NetBytes += netBytes

		// Registry counters mirror Stats (gas.* names), once per
		// iteration barrier.
		cGather.Add(gatherEdges)
		cScatter.Add(scatterEdges)
		cApply.Add(applyCalls)
		cNet.Add(netBytes)
		cIters.Add(1)

		if profile != nil {
			profile.AddPhase(cluster.Phase{
				Name: fmt.Sprintf("gas:iter-%d", iter), Kind: cluster.PhaseCompute,
				Ops: totalOps, MaxPartOps: hw.BusiestWorker(maxOps, totalOps),
				Net: netBytes, Barriers: 1,
			})
		}

		values, newValues = newValues, values
		active.Swap(nextActive)
		nextActive.Zero()
		iter++
		tr.End(iterSpan)
		if cfg.AfterIteration != nil && cfg.AfterIteration(iter-1, values) {
			break
		}
	}

	// Memory: edges are stored once (partitioned by the vertex-cut);
	// only vertex data is replicated on mirror machines, with a fixed
	// per-replica overhead for the vertex record and its
	// synchronisation buffers.
	const perReplicaOverhead = 64
	var valBytes int64
	for _, v := range values {
		valBytes += prog.ValueSize(v)
	}
	replicaBytes := int64(float64(valBytes+int64(n)*perReplicaOverhead) * replFactor)
	st.PeakMemPerNode = (g.MemoryFootprint() + replicaBytes) / int64(hw.Nodes)
	st.Iterations = iter
	gPeakMem.SetMax(st.PeakMemPerNode)

	if profile != nil {
		profile.AddPhase(cluster.Phase{
			Name: "gas:finalize", Kind: cluster.PhaseWrite,
			DiskWrite: valBytes, Net: valBytes,
		})
		profile.Iterations = iter
		if st.PeakMemPerNode > profile.PeakMemPerNode {
			profile.PeakMemPerNode = st.PeakMemPerNode
		}
	}
	return &Result[V]{Values: values, Stats: st}, nil
}

// workerScratch is per-worker reusable iteration state. acc outlives
// the vertex that filled it, and a failed attempt: the next vertex's
// first contributing Gather overwrites it (has == false).
type workerScratch[A any] struct {
	partOps   []int64
	signalled []graph.VertexID
	both      []graph.VertexID
	acc       A
}

// bothNeighborsInto appends out+in adjacency of a directed vertex to
// buf (normally buf[:0] of a reused scratch slice) and returns it.
func bothNeighborsInto(g *graph.Graph, v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	buf = append(buf, g.Out(v)...)
	buf = append(buf, g.In(v)...)
	return buf
}
