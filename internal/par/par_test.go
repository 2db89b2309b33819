package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits until the goroutine count is back to base, so a worker
// For left running shows up as a failure rather than a flake.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after For returned, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestForRunsEveryTaskOnce(t *testing.T) {
	for _, tc := range []struct{ tasks, workers int }{
		{0, 4}, {1, 4}, {3, 8}, {7, 2}, {64, 4}, {1000, 16}, {5, 1}, {5, 0}, {5, -3},
	} {
		base := runtime.NumGoroutine()
		runs := make([]atomic.Int32, tc.tasks)
		var done atomic.Int32
		bound := max(1, min(tc.workers, tc.tasks))
		For(tc.tasks, tc.workers, func(w, task int) {
			if w < 0 || w >= bound {
				t.Errorf("tasks=%d workers=%d: worker %d outside [0, %d)", tc.tasks, tc.workers, w, bound)
			}
			// With a goroutine for every task, task t runs on worker t.
			if tc.tasks <= tc.workers && w != task {
				t.Errorf("tasks=%d workers=%d: task %d ran on worker %d", tc.tasks, tc.workers, task, w)
			}
			runs[task].Add(1)
			done.Add(1)
		})
		// Every call has returned by the time For does.
		if got := int(done.Load()); got != tc.tasks {
			t.Fatalf("tasks=%d workers=%d: %d calls returned before For, want %d", tc.tasks, tc.workers, got, tc.tasks)
		}
		for task := range runs {
			if n := runs[task].Load(); n != 1 {
				t.Fatalf("tasks=%d workers=%d: task %d ran %d times", tc.tasks, tc.workers, task, n)
			}
		}
		settle(t, base)
	}
}

// TestForInline pins the inline path: with at most one worker, or at
// most one task, the tasks run in order as worker 0 on the calling
// goroutine, starting none.
func TestForInline(t *testing.T) {
	for _, tc := range []struct{ tasks, workers int }{
		{0, 0}, {0, 8}, {1, 8}, {6, 1}, {6, 0},
	} {
		base := runtime.NumGoroutine()
		var order []int
		For(tc.tasks, tc.workers, func(w, task int) {
			if w != 0 {
				t.Errorf("tasks=%d workers=%d: inline worker %d, want 0", tc.tasks, tc.workers, w)
			}
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("tasks=%d workers=%d: %d goroutines inside an inline task, want %d", tc.tasks, tc.workers, n, base)
			}
			order = append(order, task)
		})
		if len(order) != tc.tasks {
			t.Fatalf("tasks=%d workers=%d: ran %d tasks", tc.tasks, tc.workers, len(order))
		}
		for i, task := range order {
			if task != i {
				t.Fatalf("tasks=%d workers=%d: inline order %v", tc.tasks, tc.workers, order)
			}
		}
	}
}

// TestForStartsEveryWorker holds each task until min(workers, tasks)
// of them are running at once: For must start that many goroutines
// even on one processor, as the one-goroutine-per-partition engines
// rely on.
func TestForStartsEveryWorker(t *testing.T) {
	const workers = 4
	base := runtime.NumGoroutine()
	var arrived atomic.Int32
	all := make(chan struct{})
	For(workers, workers, func(_, _ int) {
		if arrived.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d tasks running at once", arrived.Load(), workers)
		}
	})
	settle(t, base)
}
