package algo

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/partition"
)

// GAP-style shared-memory kernels (Beamer et al., the GAP Benchmark
// Suite): direction-optimizing BFS, delta-stepping SSSP, and pull-mode
// PageRank. These are the raw reference kernels the engine hot paths
// are measured against — no simulated cluster accounting, just the
// fastest deterministic shared-memory implementation we can write.
//
// Every kernel is deterministic in its inputs: for any worker count
// (and any shard-view decomposition) the outputs are byte-identical.
// BFS levels and SSSP distances are unique fixed points, parents are
// resolved by atomic-minimum (top-down) or first-in-order scan
// (bottom-up), and PageRank fixes its floating-point accumulation
// order (per-vertex in-order gather plus fixed-size chunked dangling
// reduction), so parallelism never leaks into results.

// GapOptions tunes the kernels. The zero value is ready to use.
type GapOptions struct {
	// Workers caps kernel parallelism; 0 means min(GOMAXPROCS, 16).
	// Results are identical for every value.
	Workers int

	// Alpha and Beta are Beamer's direction-switching thresholds:
	// switch top-down -> bottom-up when the frontier's out-degree sum
	// exceeds (unexplored edges)/Alpha, and back when the frontier
	// shrinks below V/Beta. Zero selects the GAP defaults (15 and 18).
	Alpha, Beta int

	// Delta is the SSSP bucket width; 0 selects 32 (weights are small
	// integers, see graph.MaxWeight).
	Delta int64

	// Part, when non-nil, makes the kernels parallelise over the shard
	// views of this partitioning (each worker walks whole shards in
	// shard order) instead of contiguous vertex ranges. Results are
	// identical either way.
	Part *partition.Partitioning
}

func (o GapOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return min(runtime.GOMAXPROCS(0), 16)
}

func (o GapOptions) alpha() int {
	if o.Alpha > 0 {
		return o.Alpha
	}
	return 15
}

func (o GapOptions) beta() int {
	if o.Beta > 0 {
		return o.Beta
	}
	return 18
}

func (o GapOptions) delta() int64 {
	if o.Delta > 0 {
		return o.Delta
	}
	return 32
}

// tasks returns the work decomposition: per-task vertex lists when a
// partitioning is supplied (one task per shard, members ascending), or
// nil when the kernels should use 64-aligned contiguous ranges. Tasks
// never split a 64-bit bitset word between workers, so dense-set writes
// stay race-free.
func (o GapOptions) tasks(n int) [][]graph.VertexID {
	if o.Part == nil {
		return nil
	}
	return o.Part.Members
}

// alignedRanges cuts [0, n) into 64-aligned near-equal ranges.
func alignedRanges(n, parts int) [][2]int {
	if n == 0 {
		return nil
	}
	words := (n + 63) / 64
	perWords := (words + parts - 1) / parts
	var out [][2]int
	for lo := 0; lo < n; lo += perWords * 64 {
		hi := min(lo+perWords*64, n)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runTasks executes fn(taskID) for taskID in [0, count) across the
// given number of workers. Task outputs must be indexed by taskID so
// that merges are schedule-independent.
func runTasks(count, workers int, fn func(task int)) {
	if count == 0 {
		return
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for t := 0; t < count; t++ {
			fn(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= count {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}

// BFSTree is a BFS result with its parent-array certificate: Parents[v]
// is the predecessor v was reached from (the source for the source, -1
// when unreached). ValidateBFSTree checks a tree in O(V+E) without
// re-running any traversal.
type BFSTree struct {
	BFSResult
	Parents []graph.VertexID
}

// BFSDirOpt runs direction-optimizing BFS: level-synchronous top-down
// frontier expansion that switches to bottom-up scans of the unvisited
// set when the frontier becomes expensive (Beamer's alpha test), and
// back when it thins out (beta test). Frontiers are 64-bit bitsets in
// bottom-up mode and queues in top-down mode.
//
// No platform runs it. It is the oracle of the serving path: every lane
// of BFSMultiSource and every daemon answer must equal a solo run from
// the same source. It is also the kernel the perf gap suite and the
// benchmark's algo.bfs_diropt.us probe time.
func BFSDirOpt(g *graph.Graph, src graph.VertexID, opt GapOptions) *BFSTree {
	n := g.NumVertices()
	r := &BFSTree{
		BFSResult: BFSResult{Levels: make([]int32, n)},
		Parents:   make([]graph.VertexID, n),
	}
	for i := range r.Levels {
		r.Levels[i] = -1
		r.Parents[i] = -1
	}
	if n == 0 {
		return r
	}
	r.Levels[src] = 0
	r.Parents[src] = src
	r.Visited = 1

	workers := opt.workers()
	tasks := opt.tasks(n)
	alpha, beta := int64(opt.alpha()), int64(opt.beta())

	frontier := []graph.VertexID{src}
	front := graph.NewBitset(n)
	edgesToCheck := g.AdjSize()
	scout := int64(len(g.Out(src))) // out-degree sum of the frontier

	level := int32(0)
	rejectScout := int64(-1) // scout at the last sampling rejection
	for len(frontier) > 0 {
		level++
		// Beamer's alpha test nominates bottom-up when the frontier's
		// out-degree sum exceeds the unexplored remainder, and the beta
		// test vetoes it for thin frontiers. Both assume the geometric
		// hit rate of social graphs; a deterministic sample of unvisited
		// vertices confirms the assumption before the full scan is paid,
		// so clustered graphs whose frontiers never densify stay
		// top-down. A rejection is remembered and only retested once the
		// frontier's scout doubles past it.
		useBU := scout > edgesToCheck/alpha && int64(len(frontier)) > int64(n)/beta &&
			(rejectScout < 0 || scout > 2*rejectScout)
		if useBU {
			front.Zero()
			for _, v := range frontier {
				front.Set(v)
			}
			useBU = bfsEstimateBU(g, r.Levels, front, r.Visited) < scout
			if !useBU {
				rejectScout = scout
			}
		}
		if useBU {
			frontier, scout = bfsBottomUp(g, front, r.Levels, r.Parents, level, workers, tasks)
		} else {
			edgesToCheck -= scout
			frontier, scout = bfsTopDown(g, frontier, r.Levels, r.Parents, level, workers, opt.Part)
		}
		r.Visited += len(frontier)
		if len(frontier) > 0 {
			r.Iterations = int(level)
		}
	}
	return r
}

// bfsEstimateBU extrapolates the probe cost of one bottom-up level
// from a stride sample of unvisited vertices scanned against the
// frontier bitset — exactly the work the real scan would do, on ~16
// vertices. Deterministic (pure function of the levels array), so mode
// decisions are identical for every worker count.
func bfsEstimateBU(g *graph.Graph, levels []int32, front *graph.Bitset, visited int) int64 {
	n := g.NumVertices()
	unvisited := n - visited
	if unvisited <= 0 {
		return 0
	}
	const samples = 16
	stride := unvisited/samples + 1
	var probes int64
	seen, taken := 0, 0
	for vi := 0; vi < n && taken < samples; vi++ {
		if levels[vi] != -1 {
			continue
		}
		if seen%stride == 0 {
			taken++
			for _, u := range g.In(graph.VertexID(vi)) {
				probes++
				if front.Get(u) {
					break
				}
			}
		}
		seen++
	}
	if taken == 0 {
		return 0
	}
	return probes * int64(unvisited) / int64(taken)
}

// bfsTopDown expands one level from the frontier queue. Claims go
// through a CAS on the level array; parents resolve to the minimum
// claiming frontier vertex, so the tree is schedule-independent.
func bfsTopDown(g *graph.Graph, frontier []graph.VertexID, levels []int32,
	parents []graph.VertexID, level int32, workers int, part *partition.Partitioning,
) (next []graph.VertexID, scout int64) {
	if workers <= 1 && part == nil {
		// Sequential fast path: no atomics. With the frontier in
		// ascending order, the first claimer of each vertex IS its
		// minimum frontier in-neighbour, so the claim needs no parent
		// min-update — the same parent rule as the parallel CAS
		// protocol, one branch per arc cheaper.
		slices.Sort(frontier)
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if levels[v] == -1 {
					levels[v] = level
					parents[v] = u
					next = append(next, v)
					scout += int64(len(g.Out(v)))
				}
			}
		}
		return next, scout
	}
	// Decompose the frontier: by owner shard when partitioned, by
	// contiguous chunks otherwise.
	var chunks [][]graph.VertexID
	if part != nil {
		chunks = partition.SplitByOwner(part.Shards, func(v graph.VertexID) int {
			return part.OwnerOf(int64(v))
		}, frontier)
	} else {
		chunks = partition.SplitContiguous(frontier, workers*4)
	}

	outs := make([][]graph.VertexID, len(chunks))
	scouts := make([]int64, len(chunks))
	runTasks(len(chunks), workers, func(t int) {
		var local []graph.VertexID
		var localScout int64
		for _, u := range chunks[t] {
			for _, v := range g.Out(u) {
				lv := atomic.LoadInt32(&levels[v])
				if lv == -1 && atomic.CompareAndSwapInt32(&levels[v], -1, level) {
					local = append(local, v)
					localScout += int64(len(g.Out(v)))
					lv = level
				} else if lv == -1 {
					lv = atomic.LoadInt32(&levels[v])
				}
				if lv == level {
					// Deterministic parent: minimum claiming frontier
					// vertex wins regardless of schedule.
					for {
						old := atomic.LoadInt32((*int32)(&parents[v]))
						if old != -1 && graph.VertexID(old) <= u {
							break
						}
						if atomic.CompareAndSwapInt32((*int32)(&parents[v]), old, int32(u)) {
							break
						}
					}
				}
			}
		}
		outs[t], scouts[t] = local, localScout
	})
	for t := range outs {
		next = append(next, outs[t]...)
		scout += scouts[t]
	}
	return next, scout
}

// bfsBottomUp scans unvisited vertices for a parent in the frontier
// bitset. Each vertex is visited by exactly one task, so level/parent
// writes are race-free, and the first in-order frontier in-neighbour
// becomes the parent.
func bfsBottomUp(g *graph.Graph, front *graph.Bitset, levels []int32,
	parents []graph.VertexID, level int32, workers int, tasks [][]graph.VertexID,
) (next []graph.VertexID, scout int64) {
	n := g.NumVertices()
	scan := func(v graph.VertexID, local []graph.VertexID, localScout int64) ([]graph.VertexID, int64) {
		if levels[v] != -1 {
			return local, localScout
		}
		for _, u := range g.In(v) {
			if front.Get(u) {
				levels[v] = level
				parents[v] = u
				local = append(local, v)
				localScout += int64(len(g.Out(v)))
				break
			}
		}
		return local, localScout
	}

	var outs [][]graph.VertexID
	scouts := make([]int64, 0)
	if tasks != nil {
		outs = make([][]graph.VertexID, len(tasks))
		scouts = make([]int64, len(tasks))
		runTasks(len(tasks), workers, func(t int) {
			var local []graph.VertexID
			var localScout int64
			for _, v := range tasks[t] {
				local, localScout = scan(v, local, localScout)
			}
			outs[t], scouts[t] = local, localScout
		})
	} else {
		ranges := alignedRanges(n, workers*4)
		outs = make([][]graph.VertexID, len(ranges))
		scouts = make([]int64, len(ranges))
		runTasks(len(ranges), workers, func(t int) {
			var local []graph.VertexID
			var localScout int64
			for vi := ranges[t][0]; vi < ranges[t][1]; vi++ {
				local, localScout = scan(graph.VertexID(vi), local, localScout)
			}
			outs[t], scouts[t] = local, localScout
		})
	}
	for t := range outs {
		next = append(next, outs[t]...)
		scout += scouts[t]
	}
	return next, scout
}

// SSSPResult is single-source shortest paths output.
type SSSPResult struct {
	// Dist[v] is the weighted distance from the source, -1 if
	// unreached.
	Dist []int64
	// Visited counts reached vertices.
	Visited int
	// Iterations is the number of relaxation phases executed.
	Iterations int
}

const unreachedW = math.MaxInt64

// SSSPDeltaStep runs delta-stepping SSSP over a weighted graph:
// vertices are bucketed by distance/Delta, buckets are drained in
// order, and each drain relaxes the bucket's out-arcs in parallel with
// atomic distance minimisation. Distances are exact shortest paths —
// integer weights make every engine's result byte-identical to this
// kernel's. Panics if g is unweighted.
func SSSPDeltaStep(g *graph.Graph, src graph.VertexID, opt GapOptions) *SSSPResult {
	if !g.Weighted() {
		panic("algo: SSSPDeltaStep on unweighted graph (use graph.WithWeights)")
	}
	n := g.NumVertices()
	r := &SSSPResult{Dist: make([]int64, n)}
	for i := range r.Dist {
		r.Dist[i] = unreachedW
	}
	if n == 0 {
		return r
	}
	workers := opt.workers()
	delta := opt.delta()
	dist := r.Dist
	dist[src] = 0

	buckets := map[int64][]graph.VertexID{0: {src}}
	maxBucket := int64(0)
	inPhase := graph.NewBitset(n)

	for b := int64(0); b <= maxBucket; b++ {
		for len(buckets[b]) > 0 {
			raw := buckets[b]
			delete(buckets, b)

			// Deduplicate and drop stale entries (vertices relaxed into
			// an earlier bucket since they were queued).
			frontier := raw[:0]
			for _, v := range raw {
				if dist[v]/delta != b || inPhase.Get(v) {
					continue
				}
				inPhase.Set(v)
				frontier = append(frontier, v)
			}
			for _, v := range frontier {
				inPhase.Unset(v)
			}
			if len(frontier) == 0 {
				continue
			}
			r.Iterations++

			chunks := partition.SplitContiguous(frontier, workers*4)
			updated := make([][]graph.VertexID, len(chunks))
			runTasks(len(chunks), workers, func(t int) {
				var local []graph.VertexID
				for _, u := range chunks[t] {
					du := atomic.LoadInt64(&dist[u])
					out, ws := g.Out(u), g.OutWeights(u)
					for i, v := range out {
						cand := du + int64(ws[i])
						for {
							old := atomic.LoadInt64(&dist[v])
							if old <= cand {
								break
							}
							if atomic.CompareAndSwapInt64(&dist[v], old, cand) {
								local = append(local, v)
								break
							}
						}
					}
				}
				updated[t] = local
			})
			for _, local := range updated {
				for _, v := range local {
					bk := dist[v] / delta
					if bk > maxBucket {
						maxBucket = bk
					}
					buckets[bk] = append(buckets[bk], v)
				}
			}
		}
	}

	for i, d := range dist {
		if d == unreachedW {
			dist[i] = -1
		} else {
			r.Visited++
		}
	}
	return r
}

// PageRankResult is PageRank output.
type PageRankResult struct {
	Ranks      []float64
	Iterations int
}

// prDanglingChunk is the fixed reduction-chunk size for dangling mass:
// partial sums are computed per chunk and reduced in chunk order, so
// the floating-point result is independent of the worker count.
const prDanglingChunk = 2048

// PageRankPull runs pull-mode PageRank for a fixed number of
// iterations: every vertex gathers rank/degree contributions over its
// in-arcs (no scatter contention, sequential reads of the in-CSR), and
// dangling mass is folded in through a fixed-chunk deterministic
// reduction. damping 0 selects 0.85; iterations 0 selects 20.
func PageRankPull(g *graph.Graph, iterations int, damping float64, opt GapOptions) *PageRankResult {
	n := g.NumVertices()
	if iterations <= 0 {
		iterations = 20
	}
	if damping <= 0 {
		damping = 0.85
	}
	r := &PageRankResult{Ranks: make([]float64, n), Iterations: iterations}
	if n == 0 {
		return r
	}
	workers := opt.workers()
	ranks := r.Ranks
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	newRanks := make([]float64, n)
	base := (1 - damping) / float64(n)

	nChunks := (n + prDanglingChunk - 1) / prDanglingChunk
	partials := make([]float64, nChunks)

	vertexRanges := alignedRanges(n, workers*4)
	for it := 0; it < iterations; it++ {
		// Contributions and per-chunk dangling partials.
		runTasks(nChunks, workers, func(c int) {
			lo := c * prDanglingChunk
			hi := min(lo+prDanglingChunk, n)
			var dangling float64
			for vi := lo; vi < hi; vi++ {
				v := graph.VertexID(vi)
				if d := g.OutDegree(v); d > 0 {
					contrib[vi] = ranks[vi] / float64(d)
				} else {
					contrib[vi] = 0
					dangling += ranks[vi]
				}
			}
			partials[c] = dangling
		})
		var dangling float64
		for _, p := range partials {
			dangling += p
		}
		share := base + damping*dangling/float64(n)

		// Pull phase: strictly in-order accumulation per vertex.
		runTasks(len(vertexRanges), workers, func(t int) {
			for vi := vertexRanges[t][0]; vi < vertexRanges[t][1]; vi++ {
				sum := 0.0
				for _, u := range g.In(graph.VertexID(vi)) {
					sum += contrib[u]
				}
				newRanks[vi] = share + damping*sum
			}
		})
		ranks, newRanks = newRanks, ranks
	}
	copy(r.Ranks, ranks)
	return r
}
