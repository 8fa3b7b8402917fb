package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"profileme/internal/runner"
)

// TestParallelMapOrderAndCoverage checks that results land at their cell
// index and every cell runs exactly once, regardless of pool width.
func TestParallelMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			old := parallelism
			parallelism = workers
			defer func() { parallelism = old }()

			const n = 97
			var ran [n]int32
			out, err := parallelMap(n, func(i int) (int, error) {
				atomic.AddInt32(&ran[i], 1)
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("cell %d: got %d, want %d", i, v, i*i)
				}
				if ran[i] != 1 {
					t.Fatalf("cell %d ran %d times", i, ran[i])
				}
			}
		})
	}
}

// TestParallelMapLowestError checks the deterministic error rule: when
// multiple cells fail, the lowest-indexed error is reported, and all cells
// still run (no cancellation).
func TestParallelMapLowestError(t *testing.T) {
	var ran int32
	want := errors.New("boom")
	_, err := parallelMap(20, func(i int) (int, error) {
		atomic.AddInt32(&ran, 1)
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
	if ran != 20 {
		t.Fatalf("ran %d cells, want all 20", ran)
	}
}

// TestParallelMapPanicIsolation checks that a panicking cell becomes a
// *runner.PanicError instead of killing the process.
func TestParallelMapPanicIsolation(t *testing.T) {
	_, err := parallelMap(4, func(i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.PanicError", err)
	}
	if pe.Value != "kaboom" || pe.Stack == "" {
		t.Fatalf("panic error missing value/stack: %+v", pe)
	}
}

// TestExperimentsParallelDeterminism locks in the harness's central
// contract: running an experiment on the full worker pool yields results
// identical to the forced-sequential order (parallelism=1). Uses small
// configs of the three fan-out experiments.
func TestExperimentsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison")
	}
	runAll := func() (*figure3Result, *section6Result, *table1Result) {
		f3cfg := defaultFigure3Config(true)
		f3cfg.Benchmarks = []string{"compress", "ijpeg", "perl"}
		f3cfg.Scale = 60_000
		f3cfg.Intervals = []float64{50, 500}
		f3, err := figure3(f3cfg)
		if err != nil {
			t.Fatal(err)
		}
		s6cfg := defaultSection6Config(true)
		s6cfg.Benchmarks = []string{"compress", "li", "perl"}
		s6cfg.Scale = 30_000
		s6, err := section6(s6cfg)
		if err != nil {
			t.Fatal(err)
		}
		t1cfg := defaultTable1Config(true)
		t1cfg.Iters = 2_000
		t1, err := table1(t1cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f3, s6, t1
	}

	old := parallelism
	defer func() { parallelism = old }()

	parallelism = 1
	f3seq, s6seq, t1seq := runAll()
	parallelism = 0 // full pool
	f3par, s6par, t1par := runAll()

	if !reflect.DeepEqual(f3seq, f3par) {
		t.Error("Figure3: parallel result differs from sequential")
	}
	if !reflect.DeepEqual(s6seq, s6par) {
		t.Error("Section6: parallel result differs from sequential")
	}
	if !reflect.DeepEqual(t1seq, t1par) {
		t.Error("Table1: parallel result differs from sequential")
	}
}
