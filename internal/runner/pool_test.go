package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS — Map's pool width — for the rest of the
// test; procs 0 leaves it at its default.
func withProcs(t *testing.T, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestMapOrderAndCoverage checks that results land at their cell index
// and every cell runs exactly once, regardless of pool width.
func TestMapOrderAndCoverage(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 0} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			const n = 97
			var ran [n]atomic.Int32
			out, err := Map(n, func(i int) (int, error) {
				ran[i].Add(1)
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("cell %d: got %d, want %d", i, v, i*i)
				}
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("cell %d ran %d times", i, got)
				}
			}
		})
	}
}

// TestMapLowestError checks the deterministic error rule: when multiple
// cells fail, the lowest-indexed error is reported, and all cells still
// run (no cancellation).
func TestMapLowestError(t *testing.T) {
	withProcs(t, 4)
	var ran atomic.Int32
	want := errors.New("boom")
	_, err := Map(20, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 || i == 11 {
			return 0, fmt.Errorf("cell-%d: %w", i, want)
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, want) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := err.Error(); got != "cell 3: cell-3: boom" {
		t.Fatalf("err = %q, want lowest-indexed cell 3", got)
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d cells, want all 20", got)
	}
}

// TestMapPanicIsolation checks that a panicking cell becomes a
// *panicError instead of killing the process.
func TestMapPanicIsolation(t *testing.T) {
	withProcs(t, 4)
	_, err := Map(4, func(i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *panicError", err)
	}
	if pe.Value != "kaboom" || pe.Stack == "" {
		t.Fatalf("panic error missing value/stack: %+v", pe)
	}
}
