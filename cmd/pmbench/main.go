// Command pmbench measures the timing simulator's hot-path performance —
// ns/op, allocs/op, bytes/op, and simulated cycles and instructions per
// wall-clock second for one pipeline run per suite workload — and
// maintains the checked-in BENCH_hotpath.json baseline the CI smoke checks
// against.
//
//	pmbench                    # measure and print a table
//	pmbench -update            # measure and rewrite BENCH_hotpath.json
//	pmbench -check             # measure and fail on regression vs baseline
//	pmbench -queries [...]     # benchmark the query path instead (BENCH_query.json)
//
// Check mode compares allocs/op and bytes/op directly (they are
// machine-independent; the count alone once recorded a pass that traded
// 525,782 small allocations for 2,006 large ones as a pure win) and ns/op
// after rescaling by the calibration ratio: the baseline records the
// functional simulator's ns/op on the same machine that produced it, so a
// slower CI runner raises both numbers together and the comparison stays
// about the code, not the hardware. Any of the three regressing beyond
// -tol (default 15%) fails the run. Every workload, and the calibration,
// is the fastest of three benchmark runs, so one slow run on a shared
// machine does not trip the gate.
//
// -queries switches to the collector query-path benchmark (see query.go):
// exact vs sketch hot-PC serving on a 1M-PC aggregate under merge flood,
// gated on the machine-independent speedup ratio in BENCH_query.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"profileme/internal/cpu"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// benchScale is the per-workload dynamic instruction count.
const benchScale = 100_000

// benchWorkloads are the suite members the baseline tracks: all of them,
// since every one runs in BENCHMARK.json's sim workloads.
var benchWorkloads = workload.Names()

// Measurement is one workload's pipeline-loop performance.
type Measurement struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`     // wall time per full pipeline run
	AllocsPerOp  float64 `json:"allocs_per_op"` // heap allocations per run
	BytesPerOp   float64 `json:"bytes_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec"` // simulated cycles / wall second
	InstPerSec   float64 `json:"inst_per_sec"`   // retired instructions / wall second
	Cycles       int64   `json:"cycles"`         // simulated cycles per run (deterministic)
	Retired      uint64  `json:"retired"`        // retired instructions per run (deterministic)
}

// Baseline is the BENCH_hotpath.json schema.
type Baseline struct {
	// Notes documents provenance: what the numbers mean and how to
	// regenerate them.
	Notes string `json:"notes"`
	// GoVersion and Scale pin the measurement conditions.
	GoVersion string `json:"go_version"`
	Scale     int    `json:"scale"`
	// CalibNsPerOp is the functional simulator's ns/op on the machine that
	// produced the baseline; check mode rescales ns/op comparisons by the
	// ratio of the current machine's calibration to this one.
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
	// PreOptimization records the same measurements taken at the commit
	// before the hot-path pass, for the speedup bookkeeping; informational
	// only, never checked against.
	PreOptimization []Measurement `json:"pre_optimization,omitempty"`
	Workloads       []Measurement `json:"workloads"`
}

func main() {
	var (
		file    = flag.String("file", "BENCH_hotpath.json", "baseline file")
		update  = flag.Bool("update", false, "rewrite the baseline file with fresh measurements")
		check   = flag.Bool("check", false, "compare fresh measurements against the baseline; nonzero exit on regression")
		tol     = flag.Float64("tol", 0.15, "allowed fractional regression in ns/op (calibrated), allocs/op and bytes/op")
		queries = flag.Bool("queries", false, "benchmark the collector query path (exact vs sketch) against BENCH_query.json")
		quick   = flag.Duration("queryfor", time.Second, "minimum measurement duration per query path in -queries mode")
	)
	flag.Parse()
	if *update && *check {
		fmt.Fprintln(os.Stderr, "pmbench: -update and -check are mutually exclusive")
		os.Exit(2)
	}
	if *queries {
		qfile := *file
		if qfile == "BENCH_hotpath.json" { // -file not set: queries mode has its own default
			qfile = "BENCH_query.json"
		}
		os.Exit(runQueryBench(qfile, *update, *check, *quick))
	}

	calib := measureCalibration()
	fmt.Printf("calibration (functional sim, %s): %.1f ms/op\n", benchWorkloads[0], calib/1e6)

	var ms []Measurement
	for _, name := range benchWorkloads {
		m := measureWorkload(name)
		ms = append(ms, m)
		fmt.Printf("%-10s %8.1f ms/op  %10.0f allocs/op  %12.0f bytes/op  %12.3e cycles/s  %12.3e inst/s\n",
			m.Name, m.NsPerOp/1e6, m.AllocsPerOp, m.BytesPerOp, m.CyclesPerSec, m.InstPerSec)
	}

	switch {
	case *update:
		old, _ := readBaseline(*file) // keep pre-optimization provenance if present
		b := &Baseline{
			Notes: "Pipeline-loop performance baseline. Regenerate on the machine of " +
				"record with `go run ./cmd/pmbench -update` after any intentional " +
				"perf change; CI checks fresh measurements against this file with " +
				"`go run ./cmd/pmbench -check` (ns/op rescaled by the calibration " +
				"ratio, so the check tracks the code rather than runner speed).",
			GoVersion:    runtime.Version(),
			Scale:        benchScale,
			CalibNsPerOp: calib,
			Workloads:    ms,
		}
		if old != nil {
			b.PreOptimization = old.PreOptimization
		}
		if err := writeBaseline(*file, b); err != nil {
			fmt.Fprintln(os.Stderr, "pmbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *file)
	case *check:
		base, err := readBaseline(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmbench:", err)
			os.Exit(1)
		}
		if err := checkAgainst(base, ms, calib, *tol); err != nil {
			fmt.Fprintln(os.Stderr, "pmbench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("ok: within %.0f%% of baseline (calibration ratio %.2f)\n",
			*tol*100, calib/base.CalibNsPerOp)
	}
}

// measureCalibration times the functional simulator on the first
// benchmark workload — pure deterministic CPU work whose speed tracks the
// machine, giving check mode a unit to normalize ns/op by.
func measureCalibration() float64 {
	bench, _ := workload.ByName(benchWorkloads[0])
	prog := bench.Build(benchScale)
	r := bestOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.New(prog).Run(0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(r.NsPerOp())
}

// measureWorkload benchmarks one full pipeline run of the workload.
func measureWorkload(name string) Measurement {
	bench, ok := workload.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "pmbench: unknown workload %q\n", name)
		os.Exit(2)
	}
	prog := bench.Build(benchScale)
	var cycles int64
	var retired uint64
	r := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := sim.NewMachineSource(sim.New(prog), 0)
			pipe, err := cpu.New(prog, src, cpu.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipe.Run(0)
			if err != nil {
				b.Fatal(err)
			}
			cycles, retired = res.Cycles, res.Retired
		}
	})
	ns := float64(r.NsPerOp())
	return Measurement{
		Name:         name,
		NsPerOp:      ns,
		AllocsPerOp:  float64(r.AllocsPerOp()),
		BytesPerOp:   float64(r.AllocedBytesPerOp()),
		CyclesPerSec: float64(cycles) / (ns / 1e9),
		InstPerSec:   float64(retired) / (ns / 1e9),
		Cycles:       cycles,
		Retired:      retired,
	}
}

// bestOf3 runs the benchmark three times and keeps the fastest run: load
// from other tenants of the machine only ever slows a run down, so the
// minimum is the steadiest estimate of the code's own speed.
func bestOf3(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < 3; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// checkAgainst fails if any workload's allocs/op, bytes/op or calibrated
// ns/op regressed beyond tol, or if the simulated cycle count changed at
// all (that is a determinism break, not a perf regression).
func checkAgainst(base *Baseline, ms []Measurement, calib, tol float64) error {
	if base.CalibNsPerOp <= 0 {
		return fmt.Errorf("baseline has no calibration measurement; regenerate with -update")
	}
	scale := calib / base.CalibNsPerOp
	byName := map[string]Measurement{}
	for _, m := range base.Workloads {
		byName[m.Name] = m
	}
	for _, m := range ms {
		want, ok := byName[m.Name]
		if !ok {
			return fmt.Errorf("%s: not in baseline; regenerate with -update", m.Name)
		}
		if want.Cycles != 0 && m.Cycles != want.Cycles {
			return fmt.Errorf("%s: simulated cycles changed %d -> %d (determinism break — regenerate the baseline only if intentional)",
				m.Name, want.Cycles, m.Cycles)
		}
		if limit := want.AllocsPerOp * (1 + tol); m.AllocsPerOp > limit {
			return fmt.Errorf("%s: allocs/op %.0f exceeds baseline %.0f by more than %.0f%%",
				m.Name, m.AllocsPerOp, want.AllocsPerOp, tol*100)
		}
		if limit := want.BytesPerOp * (1 + tol); m.BytesPerOp > limit {
			return fmt.Errorf("%s: bytes/op %.0f exceeds baseline %.0f by more than %.0f%%",
				m.Name, m.BytesPerOp, want.BytesPerOp, tol*100)
		}
		if limit := want.NsPerOp * scale * (1 + tol); m.NsPerOp > limit {
			return fmt.Errorf("%s: ns/op %.3e exceeds calibrated baseline %.3e (raw %.3e x machine ratio %.2f) by more than %.0f%%",
				m.Name, m.NsPerOp, want.NsPerOp*scale, want.NsPerOp, scale, tol*100)
		}
	}
	return nil
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func writeBaseline(path string, b *Baseline) error {
	return writeJSONFile(path, b)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
