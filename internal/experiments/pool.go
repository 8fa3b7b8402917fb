package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"profileme/internal/runner"
)

// parallelism caps the experiment worker pool. Zero (the default) means
// one worker per CPU. Experiments fan independent benchmark×config cells
// across the pool; set 1 to force the sequential order (debugging) — the
// results are identical either way, see parallelMap.
var parallelism int

func poolWorkers(n int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelMap runs n independent cells on a bounded worker pool and
// returns their results indexed by cell. It is the experiment harness's
// one concurrency primitive, with the determinism and supervision rules
// all experiments share:
//
//   - Results land at their cell's index, so the output order is the
//     sequential loop order no matter how the scheduler interleaves
//     workers. Cells must not share mutable state; anything random must
//     come from per-cell seeds drawn sequentially BEFORE fanning out
//     (an RNG shared across cells would make results depend on timing).
//   - A panicking cell is isolated, converted to a *runner.PanicError
//     carrying the stack (the fleet-runner idiom), and reported like any
//     other cell failure rather than killing the process.
//   - On failure the lowest-indexed error wins — again so concurrency
//     cannot change which error the caller sees — and the remaining
//     cells still run to completion (they are independent; there is no
//     cancellation plumbing to get wrong).
func parallelMap[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)

	workers := poolWorkers(n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = runCell(i, run)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return out, nil
}

// runCell executes one cell with panic isolation.
func runCell[T any](i int, run func(i int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &runner.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return run(i)
}
