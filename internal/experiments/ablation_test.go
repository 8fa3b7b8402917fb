package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/faultinject"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// TestAblations backs each DESIGN.md §5 design choice with its ablation:
// every case runs the choice and its alternative, logs the row
// EXPERIMENTS.md's ablation table quotes, and asserts the claim — a strict
// ordering, or zero against non-zero. All runs are seeded, so the logged
// rows are exact.
func TestAblations(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (row string, err error)
	}{
		{"selection-mode", ablateSelectionMode},
		{"buffer-depth", ablateBufferDepth},
		{"interval-randomization", ablateIntervalMode},
		{"wrong-path-fetch", ablateWrongPath},
		{"sampling-overhead", ablateSamplingOverhead},
		{"pair-window", ablatePairWindow},
		{"edge-frequency", ablateEdgeFrequency},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row, err := tc.run()
			t.Log(row)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// shard is one profiled run: the unit's samples reach the shard's database
// and also.
func shard(prog *isa.Program, ccfg cpu.Config, ucfg core.Config, also func([]core.Sample)) (runner.Shard, error) {
	return runner.RunShard(context.Background(), prog, ccfg, ucfg, nil, also)
}

// §4.1.1: counting predicted-path instructions wastes no sample on an empty
// or bad-path fetch slot; counting fetch opportunities does.
func ablateSelectionMode() (string, error) {
	prog := workload.Compress(150_000)
	var yield [2]float64
	for i, mode := range []core.CountMode{core.CountInstructions, core.CountFetchOpportunities} {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 100
		ucfg.CountMode = mode
		var total, useful int
		if _, err := shard(prog, cpu.DefaultConfig(), ucfg, func(ss []core.Sample) {
			for _, s := range ss {
				total++
				if s.First.Retired() {
					useful++
				}
			}
		}); err != nil {
			return "", err
		}
		yield[i] = float64(useful) / float64(max(total, 1))
	}
	row := fmt.Sprintf("useful-sample yield: instructions %.1f%%, fetch opportunities %.1f%%", 100*yield[0], 100*yield[1])
	return row, checkf(yield[0] > yield[1], "counting instructions does not beat counting fetch opportunities")
}

// §4.3: a deeper sample buffer amortizes the interrupt over more samples.
func ablateBufferDepth() (string, error) {
	prog := workload.Ijpeg(150_000)
	depths := []int{1, 4, 16, 64}
	overhead := make([]float64, len(depths))
	for i, depth := range depths {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 200
		ucfg.BufferDepth = depth
		sh, err := shard(prog, cpu.DefaultConfig(), ucfg, nil)
		if err != nil {
			return "", err
		}
		overhead[i] = 100 * float64(sh.Result.InterruptStall) / float64(sh.Result.Cycles)
	}
	row := fmt.Sprintf("interrupt overhead at depth %v: %.3g%%", depths, overhead)
	return row, checkf(strictlyFalling(overhead), "overhead does not fall with buffer depth")
}

// Randomized intervals: a fixed interval that is a multiple of a loop's
// length samples the same few instructions forever.
func ablateIntervalMode() (string, error) {
	prog := workload.Figure2Program(18, 40_000) // 21-instruction loop body
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	var worst [2]float64
	for i, mode := range []core.IntervalMode{core.IntervalFixed, core.IntervalGeometric} {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 84 // 4 x loop length: total aliasing
		ucfg.IntervalMode = mode
		sh, err := shard(prog, ccfg, ucfg, nil)
		if err != nil {
			return "", err
		}
		s := sh.DB.Realize(sh.Result.FetchedOnPath)
		for _, r := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), samples, s) {
			if r.Truth >= 1000 {
				worst[i] = math.Max(worst[i], math.Abs(r.Estimate/float64(r.Truth)-1))
			}
		}
	}
	row := fmt.Sprintf("worst per-PC bias: fixed %.2f, geometric %.2f", worst[0], worst[1])
	return row, checkf(worst[0] > worst[1], "a fixed interval is no more biased than a randomized one")
}

// Aborted instructions are visible only because the pipeline really
// fetches down mispredicted paths.
func ablateWrongPath() (string, error) {
	prog := workload.Go(150_000)
	var frac [2]float64
	for i, noWrong := range []bool{false, true} {
		ccfg := cpu.DefaultConfig()
		ccfg.NoWrongPath = noWrong
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = 100
		ucfg.CountMode = core.CountFetchOpportunities
		var total, aborted int
		if _, err := shard(prog, ccfg, ucfg, func(ss []core.Sample) {
			for _, s := range ss {
				if s.First.Events.Has(core.EvNoInstruction) {
					continue
				}
				total++
				if !s.First.Retired() {
					aborted++
				}
			}
		}); err != nil {
			return "", err
		}
		frac[i] = float64(aborted) / float64(max(total, 1))
	}
	row := fmt.Sprintf("aborted samples: wrong-path fetch %.1f%%, none %.1f%%", 100*frac[0], 100*frac[1])
	return row, checkf(frac[0] > 0 && frac[1] == 0, "aborted samples do not track wrong-path fetch")
}

// §4: "overhead may be decreased arbitrarily by reducing the sampling rate".
func ablateSamplingOverhead() (string, error) {
	prog := workload.Ijpeg(120_000)
	pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), cpu.DefaultConfig())
	if err != nil {
		return "", err
	}
	base, err := pipe.Run(0)
	if err != nil {
		return "", err
	}
	intervals := []float64{64, 512, 4096}
	dilation := make([]float64, len(intervals))
	for i, interval := range intervals {
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = interval
		sh, err := shard(prog, cpu.DefaultConfig(), ucfg, nil)
		if err != nil {
			return "", err
		}
		dilation[i] = 100 * (float64(sh.Result.Cycles)/float64(base.Cycles) - 1)
	}
	row := fmt.Sprintf("dilation at intervals %v: %.2g%%", intervals, dilation)
	return row, checkf(strictlyFalling(dilation) && dilation[len(dilation)-1] > 0,
		"dilation does not fall toward zero with the sampling interval")
}

// §5.2.1: a pair window narrower than the in-flight range misses useful
// overlap beyond it, deflating the useful-slot estimate.
func ablatePairWindow() (string, error) {
	prog := workload.Figure7Program(3000)
	ccfg := cpu.DefaultConfig()
	ccfg.TrackWastedSlots = true
	ccfg.InterruptCost = 0
	windows := []int{10, 40, 80, 160}
	ratio := make([]float64, len(windows))
	for i, window := range windows {
		sh, err := shard(prog, ccfg, core.Config{
			Paired: true, MeanInterval: 40, Window: window, BufferDepth: 64,
			CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 3,
		}, nil)
		if err != nil {
			return "", err
		}
		s := sh.DB.Realize(sh.Result.FetchedOnPath)
		perPC := sh.Pipeline.PerPC() // useful slots have no accumulator slot
		var est, truth float64
		for _, r := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), (*profile.PCAccum).Retired, s) {
			if r.Truth < 1000 {
				continue
			}
			if _, _, u, ok := sh.DB.WastedSlots(r.PC); ok {
				est += u
				truth += float64(perPC[r.PC/isa.InstBytes].UsefulSlots)
			}
		}
		ratio[i] = est / truth
	}
	row := fmt.Sprintf("estimated/true useful slots at W %v: %.2f", windows, ratio)
	return row, checkf(ratio[0] < ratio[1] && ratio[1] < ratio[2] && ratio[2] <= ratio[3],
		"a narrower window does not deflate the useful-slot estimate")
}

// §5.2: pairs at fetch distance 1 observe one dynamic edge each, so k
// observations estimate k·S·W executions. The truly hottest edge of the
// functional stream must land inside its 3-sigma interval.
func ablateEdgeFrequency() (string, error) {
	const window = 10
	prog := workload.Compress(1_000_000)
	type edge struct{ from, to uint64 }
	truth := make(map[edge]uint64)
	m := sim.New(prog)
	for prev := uint64(math.MaxUint64); !m.Halted(); {
		r, ok, err := m.Step()
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		if prev != math.MaxUint64 {
			truth[edge{prev, r.PC}]++
		}
		prev = r.PC
	}
	var hot edge
	for e, n := range truth {
		if n > truth[hot] || n == truth[hot] && (e.from < hot.from || e.from == hot.from && e.to < hot.to) {
			hot = e
		}
	}

	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	edges := profile.NewEdgeProfile(0, window)
	sh, err := shard(prog, ccfg, core.Config{
		Paired: true, MeanInterval: 50, Window: window, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 9,
	}, edges.Handler())
	if err != nil {
		return "", err
	}
	sh.DB.Realize(sh.Result.FetchedOnPath)
	edges.S = sh.DB.S
	k := edges.Observations(hot.from, hot.to)
	est, n := edges.Estimate(hot.from, hot.to), float64(truth[hot])
	lo, hi := profile.ConfidenceInterval(k, edges.S*window, 3)
	row := fmt.Sprintf("hottest edge %#x->%#x: %d executions, k=%d, estimate %.0f (%+.1f%%), 3-sigma [%.0f, %.0f]",
		hot.from, hot.to, truth[hot], k, est, 100*(est/n-1), lo, hi)
	return row, checkf(k >= 30 && lo <= n && n <= hi, "the hottest edge's estimate is not within 3 sigma on 30+ observations")
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

// TestRealizeSOnLossyShard holds DB.Realize to one loss correction. A
// shard whose swallowed interrupts lost more than a tenth of the captured
// samples is rescaled; the join's per-PC estimates at the scale Realize
// returns must then sum to the fetched count within 1%, and the exact
// counts to it exactly. Dividing by the delivered count instead overshoots
// by captured/delivered, here about 23%.
func TestRealizeSOnLossyShard(t *testing.T) {
	plan, err := faultinject.NewPlan(1, faultinject.Rates{DropInterrupt: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = 16
	ucfg.BufferDepth = 4
	sh, err := runner.RunShard(context.Background(), workload.Compress(100_000), cpu.DefaultConfig(), ucfg, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lost, captured := sh.Stats.Lost(), sh.Stats.Captured(); lost*10 < captured {
		t.Fatalf("lost %d of %d captured samples, want at least 10%%", lost, captured)
	}
	fetched := sh.Result.FetchedOnPath
	var est float64
	var truth uint64
	for _, r := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), samples, sh.DB.Realize(fetched)) {
		est += r.Estimate
		truth += r.Truth
	}
	if truth != fetched {
		t.Errorf("exact counts sum to %d, fetched %d", truth, fetched)
	}
	if math.Abs(est/float64(fetched)-1) > 0.01 {
		t.Errorf("per-PC estimates sum to %.0f, fetched %d (%+.1f%%)", est, fetched, 100*(est/float64(fetched)-1))
	}
}

// samples reads an accumulator's sample count, the estimate of its
// on-path fetches.
func samples(a *profile.PCAccum) uint64 { return a.Samples }
