package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Map runs n independent cells on min(GOMAXPROCS, n) workers and returns
// their results indexed by cell. It is the module's one ordered pool —
// the experiments fan benchmark×config cells over it and
// traffic.Spec.Materialize its shards — with the determinism and
// supervision rules every caller shares:
//
//   - Results land at their cell's index, so the output order is the
//     sequential loop order no matter how the scheduler interleaves
//     workers. Cells must not share mutable state; anything random must
//     come from per-cell seeds drawn sequentially BEFORE fanning out
//     (an RNG shared across cells would make results depend on timing).
//   - A panicking cell is isolated, converted to a *panicError carrying
//     the stack (the fleet's idiom), and reported like any other cell
//     failure rather than killing the process.
//   - On failure the lowest-indexed error wins — again so concurrency
//     cannot change which error the caller sees — and the remaining
//     cells still run to completion (they are independent; there is no
//     cancellation plumbing to get wrong).
func Map[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = isolate(func() (T, error) { return cell(i) })
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

// isolate runs fn, turning a panic into a *panicError carrying the stack.
func isolate[T any](fn func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return fn()
}
