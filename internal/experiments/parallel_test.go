package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// TestExperimentsParallelDeterminism locks in the harness's central
// contract: running an experiment on the full worker pool yields results
// identical to the sequential order (at GOMAXPROCS 1 runner.Map runs one
// worker). Uses small configs of the three fan-out experiments.
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

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	f3seq, s6seq, t1seq := runAll()
	runtime.GOMAXPROCS(old) // full pool
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
