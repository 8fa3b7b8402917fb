// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment), the DESIGN.md §5 ablations, and raw
// simulator-performance measurements. Custom metrics carry the
// experiment's headline numbers into the benchmark output so that
// `go test -bench . -benchmem` reproduces the evaluation end to end.
package profileme_test

import (
	"testing"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/experiments"
	"profileme/internal/pathprof"
	"profileme/internal/profile"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// ------------------------------------------------------- paper figures --

// BenchmarkFigure2EventCounterSkew regenerates Figure 2: event-counter
// interrupt PC attribution on in-order vs out-of-order pipelines.
// Metrics: 90%-spread of delivered PCs (offsets) for each machine.
func BenchmarkFigure2EventCounterSkew(b *testing.B) {
	cfg := experiments.DefaultFigure2Config()
	cfg.Iters, cfg.Nops = 1500, 120
	var res *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.InOrder.Spread(0.9)), "inorder-spread")
	b.ReportMetric(float64(res.OutOfOrder.Spread(0.9)), "ooo-spread")
}

// BenchmarkFigure3Convergence regenerates Figure 3: convergence of sampled
// per-PC estimates. Metrics: fraction of points inside the 1±1/sqrt(x)
// envelope (expected ~2/3) and median relative error at the finest
// interval.
func BenchmarkFigure3Convergence(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Benchmarks = []string{"compress", "ijpeg", "li"}
	cfg.Scale = 300_000
	cfg.Intervals = []float64{50, 500}
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	var pooled []experiments.Figure3Point
	for _, s := range res.Series {
		if s.Interval == 50 {
			pooled = append(pooled, s.Retire...)
		}
	}
	b.ReportMetric(experiments.EnvelopeFraction(pooled), "envelope-frac")
	b.ReportMetric(experiments.MedianAbsError(pooled), "median-err")
}

// BenchmarkFigure6PathProfiles regenerates Figure 6: path reconstruction
// success rates. Metrics: pooled intraprocedural success at 8 history bits
// for the three schemes.
func BenchmarkFigure6PathProfiles(b *testing.B) {
	cfg := experiments.DefaultFigure6Config()
	cfg.Benchmarks = []string{"compress", "gcc"}
	cfg.GeneratedSeeds = []uint64{11}
	cfg.Scale = 120_000
	cfg.Eval.MaxInst = 120_000
	cfg.Eval.HistoryLens = []int{1, 4, 8, 12}
	var res *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	li := 2 // history length 8
	b.ReportMetric(res.Rate(0, pathprof.SchemeExecCounts, li), "exec@8")
	b.ReportMetric(res.Rate(0, pathprof.SchemeHistory, li), "history@8")
	b.ReportMetric(res.Rate(0, pathprof.SchemeHistoryPair, li), "pair@8")
}

// BenchmarkFigure7WastedSlots regenerates Figure 7: total latency vs
// wasted issue slots via paired sampling. Metrics: the serial and parallel
// loops' waste per available slot (ground truth).
func BenchmarkFigure7WastedSlots(b *testing.B) {
	cfg := experiments.DefaultFigure7Config()
	cfg.Iters = 6000
	var res *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	rate := func(loop string) float64 {
		var w, l int64
		for _, p := range res.Points {
			if p.Loop == loop {
				w += p.Wasted
				l += p.Latency
			}
		}
		if l == 0 {
			return 0
		}
		return float64(w) / float64(4*l)
	}
	b.ReportMetric(rate("A-serial"), "serial-wastefrac")
	b.ReportMetric(rate("C-parallel"), "parallel-wastefrac")
}

// BenchmarkTable1Latencies regenerates Table 1: per-stage latencies on the
// stress kernels. Metric: mem-latency kernel's load issue->completion.
func BenchmarkTable1Latencies(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.Iters = 6000
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Kernel == "mem-latency" {
			b.ReportMetric(row.MemLat, "memload-cycles")
		}
		if row.Kernel == "dep-stall" {
			b.ReportMetric(row.Lat[1], "depstall-cycles")
		}
	}
}

// BenchmarkSection6WindowedIPC regenerates the §6 statistics. Metrics:
// overall retire-weighted CoV of windowed IPC and the largest per-
// benchmark max/min ratio.
func BenchmarkSection6WindowedIPC(b *testing.B) {
	cfg := experiments.DefaultSection6Config()
	cfg.Scale = 120_000
	var res *experiments.Section6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Section6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	maxRatio := 0.0
	for _, row := range res.Rows {
		if row.MaxMinRatio > maxRatio {
			maxRatio = row.MaxMinRatio
		}
	}
	b.ReportMetric(res.OverallCoV, "weighted-cov")
	b.ReportMetric(maxRatio, "max-ipc-ratio")
}

// ------------------------------------------------------------ ablations --

// BenchmarkAblationSelectionMode compares the two instruction-selection
// modes of §4.1.1: counting predicted-path instructions vs counting fetch
// opportunities. Metric: useful sample yield (retired-instruction samples
// per delivered sample).
func BenchmarkAblationSelectionMode(b *testing.B) {
	prog := workload.Compress(150_000)
	for _, mode := range []core.CountMode{core.CountInstructions, core.CountFetchOpportunities} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var yield float64
			for i := 0; i < b.N; i++ {
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval = 100
				ucfg.CountMode = mode
				unit := core.MustNewUnit(ucfg)
				var total, useful int
				src := sim.NewMachineSource(sim.New(prog), 0)
				pipe, err := cpu.New(prog, src, cpu.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, func(ss []core.Sample) {
					for _, s := range ss {
						total++
						if s.First.Retired() {
							useful++
						}
					}
				})
				if _, err := pipe.Run(0); err != nil {
					b.Fatal(err)
				}
				if total > 0 {
					yield = float64(useful) / float64(total)
				}
			}
			b.ReportMetric(yield, "useful-yield")
		})
	}
}

// BenchmarkAblationSampleBuffer sweeps the §4.3 sample-buffer depth.
// Metric: interrupt-stall cycles as a fraction of the run — buffering
// amortizes delivery cost.
func BenchmarkAblationSampleBuffer(b *testing.B) {
	prog := workload.Ijpeg(150_000)
	for _, depth := range []int{1, 4, 16, 64} {
		depth := depth
		b.Run("depth"+itoa(depth), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval = 200
				ucfg.BufferDepth = depth
				unit := core.MustNewUnit(ucfg)
				src := sim.NewMachineSource(sim.New(prog), 0)
				pipe, err := cpu.New(prog, src, cpu.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, func([]core.Sample) {})
				res, err := pipe.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				overhead = float64(res.InterruptStall) / float64(res.Cycles)
			}
			b.ReportMetric(100*overhead, "overhead-%")
		})
	}
}

// BenchmarkAblationFixedInterval compares fixed vs randomized sampling
// intervals. Metric: worst per-PC bias (max |estimate/actual - 1| over hot
// instructions) — fixed intervals alias with loop periods.
func BenchmarkAblationFixedInterval(b *testing.B) {
	// A loop whose body length divides the fixed interval aliases badly.
	prog := workload.Figure2Program(18, 40_000) // 21-instruction loop body
	for _, mode := range []core.IntervalMode{core.IntervalFixed, core.IntervalGeometric} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval = 84 // 4 x loop length: total aliasing
				ucfg.IntervalMode = mode
				unit := core.MustNewUnit(ucfg)
				db := profile.NewDB(84, 0, 4)
				src := sim.NewMachineSource(sim.New(prog), 0)
				ccfg := cpu.DefaultConfig()
				ccfg.InterruptCost = 0
				pipe, err := cpu.New(prog, src, ccfg)
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, db.Handler())
				res, err := pipe.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				if db.Samples() > 0 {
					db.S = float64(res.FetchedOnPath) / float64(db.Samples())
				}
				worst = worstBias(pipe, db)
			}
			b.ReportMetric(worst, "worst-pc-bias")
		})
	}
}

// worstBias compares per-PC sampled estimates against ground truth for
// hot instructions and returns the worst relative deviation.
func worstBias(pipe *cpu.Pipeline, db *profile.DB) float64 {
	worst := 0.0
	for _, st := range pipe.PerPC() {
		if st.Retired < 1000 {
			continue
		}
		est := db.EstimatedCount(st.PC)
		dev := est/float64(st.Fetched) - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// BenchmarkAblationNoWrongPath disables wrong-path fetch: aborted-sample
// visibility (a core ProfileMe claim) should vanish. Metric: fraction of
// samples that are aborted instructions, with and without wrong-path
// fetch.
func BenchmarkAblationNoWrongPath(b *testing.B) {
	prog := workload.Go(150_000)
	for _, noWrong := range []bool{false, true} {
		noWrong := noWrong
		name := "wrongpath"
		if noWrong {
			name = "nowrongpath"
		}
		b.Run(name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				ccfg := cpu.DefaultConfig()
				ccfg.NoWrongPath = noWrong
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval = 100
				ucfg.CountMode = core.CountFetchOpportunities
				unit := core.MustNewUnit(ucfg)
				var total, aborted int
				src := sim.NewMachineSource(sim.New(prog), 0)
				pipe, err := cpu.New(prog, src, ccfg)
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, func(ss []core.Sample) {
					for _, s := range ss {
						if s.First.Events.Has(core.EvNoInstruction) {
							continue
						}
						total++
						if !s.First.Retired() {
							aborted++
						}
					}
				})
				if _, err := pipe.Run(0); err != nil {
					b.Fatal(err)
				}
				if total > 0 {
					frac = float64(aborted) / float64(total)
				}
			}
			b.ReportMetric(100*frac, "aborted-%")
		})
	}
}

// ---------------------------------------------------- simulator speed --

// BenchmarkPipeline measures raw timing-simulator throughput per suite
// benchmark (instructions simulated per second).
func BenchmarkPipeline(b *testing.B) {
	for _, name := range []string{"compress", "ijpeg", "li", "perl"} {
		bench, _ := workload.ByName(name)
		prog := bench.Build(100_000)
		b.Run(name, func(b *testing.B) {
			var insts uint64
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
				insts += res.Retired
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
		})
	}
}

// BenchmarkFunctionalSim measures the functional simulator alone.
func BenchmarkFunctionalSim(b *testing.B) {
	bench, _ := workload.ByName("compress")
	prog := bench.Build(100_000)
	var insts uint64
	for i := 0; i < b.N; i++ {
		n, err := sim.New(prog).Run(0, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSamplingOverhead sweeps the sampling interval and reports the
// run-time dilation caused by profiling interrupts — the paper's
// "overhead may be decreased arbitrarily by reducing the sampling rate".
func BenchmarkSamplingOverhead(b *testing.B) {
	prog := workload.Ijpeg(120_000)
	base := int64(0)
	{
		src := sim.NewMachineSource(sim.New(prog), 0)
		pipe, err := cpu.New(prog, src, cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := pipe.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		base = res.Cycles
	}
	for _, interval := range []float64{64, 512, 4096} {
		interval := interval
		b.Run("interval"+itoa(int(interval)), func(b *testing.B) {
			var dilation float64
			for i := 0; i < b.N; i++ {
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval = interval
				unit := core.MustNewUnit(ucfg)
				src := sim.NewMachineSource(sim.New(prog), 0)
				pipe, err := cpu.New(prog, src, cpu.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, func([]core.Sample) {})
				res, err := pipe.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				dilation = float64(res.Cycles)/float64(base) - 1
			}
			b.ReportMetric(100*dilation, "slowdown-%")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// BenchmarkBlindSpot regenerates the §2.2 blind-spot comparison. Metrics:
// fraction of counter interrupts attributed inside uninterruptible code
// (expected ~0) vs the ProfileMe sample fraction (expected ~true share).
func BenchmarkBlindSpot(b *testing.B) {
	cfg := experiments.DefaultBlindSpotConfig()
	cfg.Iters = 8000
	var res *experiments.BlindSpotResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.BlindSpot(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.TrueShare, "true-share")
	b.ReportMetric(res.CounterShare, "counter-share")
	b.ReportMetric(res.ProfileShare, "profileme-share")
}

// BenchmarkEdgeProfile measures edge-frequency estimation from paired
// samples (§5.2). Metric: relative error of the hottest edge's estimated
// execution count against ground truth.
func BenchmarkEdgeProfile(b *testing.B) {
	prog := workload.Compress(200_000)
	var relErr float64
	for i := 0; i < b.N; i++ {
		const (
			interval = 50
			window   = 40
		)
		unit := core.MustNewUnit(core.Config{
			Paired: true, MeanInterval: interval, Window: window, BufferDepth: 32,
			CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 9,
		})
		edges := profile.NewEdgeProfile(interval, window)
		ccfg := cpu.DefaultConfig()
		ccfg.InterruptCost = 0
		src := sim.NewMachineSource(sim.New(prog), 0)
		pipe, err := cpu.New(prog, src, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		pipe.AttachProfileMe(unit, edges.Handler())
		if _, err := pipe.Run(0); err != nil {
			b.Fatal(err)
		}
		hot := edges.Hot(1)
		if len(hot) == 0 {
			b.Fatal("no edges observed")
		}
		// Ground truth: dynamic edge count from the functional stream.
		var trueCount float64
		m := sim.New(prog)
		var prevPC uint64
		first := true
		for !m.Halted() {
			r, ok, err := m.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			if !first && prevPC == hot[0].Edge.From && r.PC == hot[0].Edge.To {
				trueCount++
			}
			prevPC, first = r.PC, false
		}
		if trueCount > 0 {
			relErr = hot[0].Estimate/trueCount - 1
			if relErr < 0 {
				relErr = -relErr
			}
		}
	}
	b.ReportMetric(relErr, "hottest-edge-relerr")
}

// BenchmarkAblationPairWindow sweeps the paired-sampling window W
// (§5.2.1: "conservatively chosen to include any pair of instructions
// that may be simultaneously in flight"). A window smaller than the
// in-flight range misses useful overlap beyond it, deflating the useful
// estimate and inflating wasted slots. Metric: estimated/true useful
// issue slots over the Figure 7 program.
func BenchmarkAblationPairWindow(b *testing.B) {
	for _, window := range []int{10, 40, 80, 160} {
		window := window
		b.Run("W"+itoa(window), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				prog := workload.Figure7Program(3000)
				ccfg := cpu.DefaultConfig()
				ccfg.TrackWastedSlots = true
				ccfg.InterruptCost = 0
				unit := core.MustNewUnit(core.Config{
					Paired: true, MeanInterval: 40, Window: window, BufferDepth: 64,
					CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 3,
				})
				db := profile.NewDB(40, window, ccfg.SustainedIssueWidth)
				src := sim.NewMachineSource(sim.New(prog), 0)
				pipe, err := cpu.New(prog, src, ccfg)
				if err != nil {
					b.Fatal(err)
				}
				pipe.AttachProfileMe(unit, db.Handler())
				res, err := pipe.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				if db.Samples() > 0 {
					db.S = float64(res.FetchedOnPath) / float64(db.Samples())
				}
				var estUseful, trueUseful float64
				for _, st := range pipe.PerPC() {
					if st.Retired < 1000 {
						continue
					}
					if _, _, u, ok := db.WastedSlots(st.PC); ok {
						estUseful += u
						trueUseful += float64(st.UsefulSlots)
					}
				}
				if trueUseful > 0 {
					ratio = estUseful / trueUseful
				}
			}
			b.ReportMetric(ratio, "est/true-useful")
		})
	}
}

// BenchmarkWWComparison runs the §8 comparison against Westcott & White's
// IID-restricted sampling. Metrics: each sampler's hot-instruction
// coverage and worst per-PC bias at matched sample budgets.
func BenchmarkWWComparison(b *testing.B) {
	cfg := experiments.DefaultWWConfig()
	cfg.Scale = 1_000_000
	cfg.Period = 6
	var res *experiments.WWResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.WW(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.IIDCoverage, "iid-coverage")
	b.ReportMetric(res.PMCoverage, "pm-coverage")
	b.ReportMetric(res.IIDWorstBias, "iid-worst-bias")
	b.ReportMetric(res.PMWorstBias, "pm-worst-bias")
}

// BenchmarkMultiprocess runs the §4.1.3 context-register demonstration:
// two processes time-sliced on one core with a shared memory hierarchy
// and one ProfileMe unit. Metrics: cache-interference factors and the
// median bias of the demultiplexed profile.
func BenchmarkMultiprocess(b *testing.B) {
	cfg := experiments.DefaultMultiprocessConfig()
	cfg.Scale = 150_000
	var res *experiments.MultiprocessResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Multiprocess(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.InterferenceA, "interference-a")
	b.ReportMetric(res.InterferenceB, "interference-b")
	b.ReportMetric(res.BiasA, "demux-median-bias")
}
