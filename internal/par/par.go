// Package par is the one fork-join primitive the engines and kernels
// share: run a fixed set of tasks on a bounded number of goroutines and
// return when every task is done, the role OpenMP's `parallel for`
// plays in the GAP reference kernels. Every data-parallel loop in the
// graph core, the GAP kernels and the five platform engines goes
// through For, so the harness's scheduling overhead lives in one place.
//
// par imports nothing from the repository: graph, the lowest package
// that fans out, sits below partition and every engine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the default fan-out of the shared-memory kernels (text
// parse, CSR build, GAP kernels): one goroutine per processor, at most
// 16, which also bounds the per-worker scratch those kernels allocate.
func Workers() int { return min(runtime.GOMAXPROCS(0), 16) }

// For runs fn(worker, task) for every task in [0, tasks) on
// min(workers, tasks) goroutines and returns when every call has.
// With tasks ≤ workers, worker t runs task t; with more tasks each
// goroutine claims the next unclaimed task until none are left, so
// worker w may run any task. Outputs a merge reads must be indexed by
// task, and only reusable scratch by worker (worker < min(workers,
// tasks)), unless the merge does not depend on which worker ran which
// task, as integer sums do not. When min(workers, tasks) ≤ 1 the tasks run inline, in
// order, on the calling goroutine as worker 0.
func For(tasks, workers int, fn func(worker, task int)) {
	workers = min(workers, tasks)
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			fn(0, t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			if workers == tasks {
				// One task per goroutine, bound as a hand-written
				// fork-join binds them: claiming in counter order runs
				// neighbouring tasks side by side, and pregel's hash
				// partitions, interleaved vertex by vertex, then share
				// cache lines (Giraph CONN cells ran about 23% slower).
				fn(w, w)
				return
			}
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				fn(w, t)
			}
		}(w)
	}
	wg.Wait()
}
