package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// ablation is one DESIGN.md §5 design choice against its alternative:
// run measures one setting, line formats the settings and their
// measurements as EXPERIMENTS.md quotes them, and holds is the claim — a
// strict ordering, or zero against non-zero.
type ablation struct {
	name     string // as DESIGN.md §5 cites it
	settings []any
	run      func(setting any) (float64, error)
	line     string
	holds    func(v []float64) bool
}

// ablationTable is the six ablations, in the order they print. Each runs
// one configuration, -quick or not; every run is seeded, so the rows are
// exact.
var ablationTable = []ablation{{
	// §4.1.1: counting predicted-path instructions wastes no sample on an
	// empty or bad-path fetch slot; counting fetch opportunities does.
	name:     "selection-mode",
	settings: []any{core.CountInstructions, core.CountFetchOpportunities},
	run: func(mode any) (float64, error) {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 100
		ucfg.CountMode = mode.(core.CountMode)
		return sampleShare(workload.Compress(150_000), cpu.DefaultConfig(), ucfg, nil, (*core.Record).Retired)
	},
	line:  "useful-sample yield at %v: %.1f%%",
	holds: func(v []float64) bool { return v[0] > v[1] },
}, {
	// §4.3: a deeper sample buffer amortizes the interrupt over more
	// samples.
	name:     "buffer-depth",
	settings: []any{1, 4, 16, 64},
	run: func(depth any) (float64, error) {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 200
		ucfg.BufferDepth = depth.(int)
		sh, err := runner.RunShard(context.TODO(), workload.Ijpeg(150_000), cpu.DefaultConfig(), ucfg, nil, nil)
		return 100 * float64(sh.Result.InterruptStall) / float64(sh.Result.Cycles), err
	},
	line:  "interrupt overhead at depth %v: %.3g%%",
	holds: strictlyFalling,
}, {
	// A fixed interval that is a multiple of a loop's length samples the
	// same few instructions forever; a randomized one does not.
	name:     "interval-randomization",
	settings: []any{core.IntervalFixed, core.IntervalGeometric},
	run: func(mode any) (float64, error) {
		ccfg := cpu.DefaultConfig()
		ccfg.InterruptCost = 0
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 84 // 4 x the 21-instruction loop: total aliasing
		ucfg.IntervalMode = mode.(core.IntervalMode)
		sh, err := runner.RunShard(context.TODO(), workload.Figure2Program(18, 40_000), ccfg, ucfg, nil, nil)
		if err != nil {
			return 0, err
		}
		var worst float64
		s := sh.DB.Realize(sh.Result.FetchedOnPath)
		for _, row := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), samples, s) {
			if row.Truth >= 1000 {
				worst = math.Max(worst, math.Abs(row.Estimate/float64(row.Truth)-1))
			}
		}
		return worst, nil
	},
	line:  "worst per-PC bias at %v: %.2f",
	holds: func(v []float64) bool { return v[0] > v[1] },
}, {
	// Aborted instructions are visible only because the pipeline really
	// fetches down mispredicted paths.
	name:     "wrong-path-fetch",
	settings: []any{"on", "off"},
	run: func(fetch any) (float64, error) {
		ccfg := cpu.DefaultConfig()
		ccfg.NoWrongPath = fetch == "off"
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 100
		ucfg.CountMode = core.CountFetchOpportunities
		hasInst := func(r *core.Record) bool { return !r.Events.Has(core.EvNoInstruction) }
		return sampleShare(workload.Go(150_000), ccfg, ucfg, hasInst, func(r *core.Record) bool { return !r.Retired() })
	},
	line:  "aborted samples with wrong-path fetch %v: %.1f%%",
	holds: func(v []float64) bool { return v[0] > 0 && v[1] == 0 },
}, {
	// §4: "overhead may be decreased arbitrarily by reducing the sampling
	// rate": cycles over an unprofiled run's, in percent.
	name:     "sampling-overhead",
	settings: []any{64.0, 512.0, 4096.0},
	run: func(interval any) (float64, error) {
		prog := workload.Ijpeg(120_000)
		pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), cpu.DefaultConfig())
		if err != nil {
			return 0, err
		}
		base, err := pipe.Run(0)
		if err != nil {
			return 0, err
		}
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = interval.(float64)
		sh, err := runner.RunShard(context.TODO(), prog, cpu.DefaultConfig(), ucfg, nil, nil)
		return 100 * (float64(sh.Result.Cycles)/float64(base.Cycles) - 1), err
	},
	line:  "dilation at intervals %v: %.2g%%",
	holds: func(v []float64) bool { return strictlyFalling(v) && v[len(v)-1] > 0 },
}, {
	// §5.2.1: a pair window narrower than the in-flight range misses
	// useful overlap beyond it, deflating the useful-slot estimate.
	name:     "pair-window",
	settings: []any{10, 40, 80, 160},
	run: func(window any) (float64, error) {
		ccfg := cpu.DefaultConfig()
		ccfg.TrackWastedSlots = true
		ccfg.InterruptCost = 0
		sh, err := runner.RunShard(context.TODO(), workload.Figure7Program(3000), ccfg, core.Config{
			Paired: true, MeanInterval: 40, Window: window.(int), BufferDepth: 64,
			CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 3,
		}, nil, nil)
		if err != nil {
			return 0, err
		}
		s := sh.DB.Realize(sh.Result.FetchedOnPath)
		perPC := sh.Pipeline.PerPC() // useful slots have no accumulator slot
		var est, truth float64
		for _, row := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), (*profile.PCAccum).Retired, s) {
			if _, _, u, ok := sh.DB.WastedSlots(row.PC); ok && row.Truth >= 1000 {
				est += u
				truth += float64(perPC[row.PC/isa.InstBytes].UsefulSlots)
			}
		}
		return est / truth, nil
	},
	line:  "estimated/true useful slots at W %v: %.2f",
	holds: func(v []float64) bool { return v[0] < v[1] && v[1] < v[2] && v[2] <= v[3] },
}}

// ablationsResult holds each ablation's measurements, indexed like
// ablationTable, then like its settings.
type ablationsResult [][]float64

// ablations runs every setting of every ablation on the pool; there is
// one configuration, which -quick runs too.
func ablations(bool) (Result, error) {
	var cells [][2]int // ablation, setting
	for a, ab := range ablationTable {
		for s := range ab.settings {
			cells = append(cells, [2]int{a, s})
		}
	}
	vals, err := runner.Map(len(cells), func(i int) (float64, error) {
		ab := ablationTable[cells[i][0]]
		return ab.run(ab.settings[cells[i][1]])
	})
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}
	r := make(ablationsResult, len(ablationTable))
	for i, c := range cells {
		r[c[0]] = append(r[c[0]], vals[i])
	}
	return r, nil
}

// Check asserts each design choice beats its alternative.
func (r ablationsResult) Check() error {
	var errs []error
	for a := range ablationTable {
		errs = append(errs, r.checkRow(a))
	}
	return errors.Join(errs...)
}

// checkRow asserts ablation a's design choice beats its alternative.
func (r ablationsResult) checkRow(a int) error {
	return checkf(ablationTable[a].holds(r[a]), "ablations: %s does not beat its alternative: %s", ablationTable[a].name, r.row(a))
}

// row formats ablation a's settings and measurements.
func (r ablationsResult) row(a int) string {
	return fmt.Sprintf(ablationTable[a].line, ablationTable[a].settings, r[a])
}

// Render prints one line per ablation.
func (r ablationsResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations — each DESIGN.md §5 choice against its alternative\n")
	for a, ab := range ablationTable {
		fmt.Fprintf(&b, "%-23s %s\n", ab.name, r.row(a))
	}
	return b.String()
}

// CSV renders every measurement as ablation,setting,value.
func (r ablationsResult) CSV() string {
	var b strings.Builder
	b.WriteString("ablation,setting,value\n")
	for a, ab := range ablationTable {
		for s, setting := range ab.settings {
			fmt.Fprintf(&b, "%s,%v,%.6f\n", ab.name, setting, r[a][s])
		}
	}
	return b.String()
}

// sampleShare runs one shard and returns the share, in percent, of the
// delivered samples it counts (every one when counted is nil) for which
// hit holds.
func sampleShare(prog *isa.Program, ccfg cpu.Config, ucfg core.Config, counted, hit func(*core.Record) bool) (float64, error) {
	var total, hits int
	_, err := runner.RunShard(context.TODO(), prog, ccfg, ucfg, nil, func(ss []core.Sample) {
		for _, s := range ss {
			if counted == nil || counted(&s.First) {
				total++
				if hit(&s.First) {
					hits++
				}
			}
		}
	})
	return 100 * float64(hits) / float64(max(total, 1)), err
}

// strictlyFalling reports whether xs decreases at every step.
func strictlyFalling(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] >= xs[i-1] {
			return false
		}
	}
	return true
}

// samples reads an accumulator's sample count, the estimate of its
// on-path fetches.
func samples(a *profile.PCAccum) uint64 { return a.Samples }
