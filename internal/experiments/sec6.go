package experiments

import (
	"fmt"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// section6Config parameterizes the windowed-IPC study.
type section6Config struct {
	Benchmarks   []string // empty = whole suite
	Scale        int
	WindowCycles int
}

// defaultSection6Config matches the paper's 30-cycle windows.
func defaultSection6Config(quick bool) section6Config {
	return section6Config{Scale: pick(quick, 300_000, 120_000), WindowCycles: 30}
}

// section6Row is one benchmark's windowed-IPC statistics.
type section6Row struct {
	Benchmark   string
	Windows     int
	MeanIPC     float64
	MinIPC      float64 // minimum over non-empty windows
	MaxIPC      float64
	MaxMinRatio float64
	// WeightedCoV is the standard deviation of windowed IPC, weighted by
	// retire count, as a fraction of the mean (the paper's §6 statistic).
	WeightedCoV float64
}

// section6Result holds per-benchmark rows plus the pooled statistic.
type section6Result struct {
	Config     section6Config
	Rows       []section6Row
	OverallCoV float64
}

// section6 reproduces the paper's §6 measurements: run each benchmark on
// the timing pipeline, count retired instructions per fixed 30-cycle
// window, and report the max/min windowed-IPC ratio and the retire-weighted
// standard deviation of windowed IPC (paper: ratios 3-30; weighted stddev
// 20-42% of the mean, ~31% overall).
func section6(cfg section6Config) (*section6Result, error) {
	names := cfg.Benchmarks
	if len(names) == 0 {
		names = workload.Names()
	}
	res := &section6Result{Config: cfg}

	// Benchmarks are independent timing runs: fan them out, keeping each
	// cell's window counts so the pooled statistic can be folded
	// afterwards in benchmark order (same accumulation order — and
	// therefore bit-identical floating point — as the sequential loop).
	type cellOut struct {
		row  section6Row
		wins []uint32
	}
	cells, err := runner.Map(len(names), func(i int) (cellOut, error) {
		name := names[i]
		bench, ok := workload.ByName(name)
		if !ok {
			return cellOut{}, fmt.Errorf("sec6: unknown benchmark %q", name)
		}
		prog := bench.Build(cfg.Scale)
		pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), cpu.DefaultConfig())
		if err != nil {
			return cellOut{}, fmt.Errorf("sec6: %s: %w", name, err)
		}
		var wins []uint32 // retirements per window
		pipe.Observe(func(l cpu.Leave) {
			if !l.Retired() {
				return
			}
			w := int(l.StageCycle[core.StageRetire] / int64(cfg.WindowCycles))
			for len(wins) <= w {
				wins = append(wins, 0)
			}
			wins[w]++
		})
		if _, err = pipe.Run(0); err != nil {
			return cellOut{}, fmt.Errorf("sec6: %s: %w", name, err)
		}
		if len(wins) > 1 {
			wins = wins[:len(wins)-1] // drop the final partial window
		}
		row := section6Row{Benchmark: name}
		var weighted stats.Weighted
		var meanAcc stats.Running
		first := true
		for _, w := range wins {
			ipc := float64(w) / float64(cfg.WindowCycles)
			meanAcc.Add(ipc)
			if w == 0 {
				continue // ratio over non-empty windows, as the paper's levels
			}
			row.Windows++
			if first || ipc < row.MinIPC {
				row.MinIPC = ipc
			}
			if first || ipc > row.MaxIPC {
				row.MaxIPC = ipc
			}
			first = false
			weighted.Add(ipc, float64(w))
		}
		row.MeanIPC = meanAcc.Mean()
		if row.MinIPC > 0 {
			row.MaxMinRatio = row.MaxIPC / row.MinIPC
		}
		if weighted.Mean() > 0 {
			row.WeightedCoV = weighted.StdDev() / weighted.Mean()
		}
		return cellOut{row: row, wins: wins}, nil
	})
	if err != nil {
		return nil, err
	}

	var overall stats.Weighted
	for _, c := range cells {
		res.Rows = append(res.Rows, c.row)
		for _, w := range c.wins {
			if w == 0 {
				continue
			}
			overall.Add(float64(w)/float64(cfg.WindowCycles), float64(w))
		}
	}
	if overall.Mean() > 0 {
		res.OverallCoV = overall.StdDev() / overall.Mean()
	}
	return res, nil
}

// Check verifies the paper's qualitative findings: windowed IPC varies
// substantially within every benchmark (max/min well above 1), the
// variation differs across benchmarks, and the pooled weighted CoV falls
// in a broad band around the paper's 31%.
func (r *section6Result) Check() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("sec6: no rows")
	}
	minCoV, maxCoV := 10.0, 0.0
	for _, row := range r.Rows {
		if err := checkf(row.MaxMinRatio >= 2,
			"sec6: %s: max/min windowed IPC %.1f shows no variation", row.Benchmark, row.MaxMinRatio); err != nil {
			return err
		}
		if row.WeightedCoV < minCoV {
			minCoV = row.WeightedCoV
		}
		if row.WeightedCoV > maxCoV {
			maxCoV = row.WeightedCoV
		}
	}
	if err := checkf(maxCoV > minCoV*1.3,
		"sec6: benchmarks show uniform CoV (%.2f..%.2f); the suite should vary", minCoV, maxCoV); err != nil {
		return err
	}
	return checkf(r.OverallCoV > 0.10 && r.OverallCoV < 0.80,
		"sec6: overall weighted CoV %.2f outside plausible band", r.OverallCoV)
}

// Render prints the per-benchmark table.
func (r *section6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6 — windowed IPC over %d-cycle windows\n", r.Config.WindowCycles)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %9s %10s\n",
		"benchmark", "windows", "mean", "min", "max", "max/min", "w.stddev%%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8d %8.2f %8.2f %8.2f %9.1f %9.1f%%\n",
			row.Benchmark, row.Windows, row.MeanIPC, row.MinIPC, row.MaxIPC,
			row.MaxMinRatio, 100*row.WeightedCoV)
	}
	fmt.Fprintf(&b, "overall retire-weighted stddev: %.1f%% of mean (paper: 20-42%%, overall 31%%)\n",
		100*r.OverallCoV)
	return b.String()
}
