package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// figure3Config parameterizes the convergence experiment.
type figure3Config struct {
	Benchmarks []string // suite subset (empty = whole suite)
	Scale      int      // workload scale (dynamic instructions per program)
	Intervals  []float64
	Seed       uint64
	// UseTiming runs the full out-of-order pipeline with the real
	// ProfileMe unit instead of the fast functional sampler. Slower, but
	// validates that the fast mode (the documented substitution for the
	// paper's cycle-accurate runs) shows the same convergence.
	UseTiming bool
}

// defaultFigure3Config scales the paper's runs down proportionally: the
// paper sampled every 10^3-10^5 instructions of 10^8-10^9 traces; we sample
// every 10^2-10^4 of ~10^6-10^7, keeping the expected per-PC sample counts
// — the quantity convergence depends on — in the same range.
func defaultFigure3Config(quick bool) figure3Config {
	if quick {
		return figure3Config{Scale: 300_000, Intervals: []float64{50, 500}, Seed: 7}
	}
	return figure3Config{Scale: 2_000_000, Intervals: []float64{100, 1000, 10000}, Seed: 7}
}

// figure3Point is one static instruction at one sampling interval: the
// number of samples with the property and the ratio of the estimated to
// the actual count.
type figure3Point struct {
	PC      uint64
	Samples uint64
	Ratio   float64
}

// expected returns the samples the point's true count implies
// (executions / interval). Selecting points on it, unlike on the observed
// count, does not favour the PCs that happened to be oversampled.
func (p figure3Point) expected() float64 { return float64(p.Samples) / p.Ratio }

// figure3Series holds all points for one metric at one interval.
type figure3Series struct {
	Benchmark string
	Interval  float64
	Retire    []figure3Point // retire-count estimates
	DMiss     []figure3Point // D-cache-miss-count estimates
}

// envelopeFraction returns the fraction of points inside the 1 ± 1/sqrt(x)
// envelope for the given metric points.
func envelopeFraction(points []figure3Point) float64 {
	xs := make([]float64, len(points))
	rs := make([]float64, len(points))
	for i, p := range points {
		xs[i], rs[i] = float64(p.Samples), p.Ratio
	}
	return stats.EnvelopeFraction(xs, rs)
}

// medianAbsError returns the median |ratio - 1| over the points.
func medianAbsError(points []figure3Point) float64 {
	if len(points) == 0 {
		return 0
	}
	devs := make([]float64, len(points))
	for i, p := range points {
		devs[i] = math.Abs(p.Ratio - 1)
	}
	return stats.Quantile(devs, 0.5)
}

// figure3Result aggregates all series.
type figure3Result struct {
	Series []figure3Series
}

// figure3 reproduces the convergence experiment (§5.1, Figure 3): sample
// the instruction stream of each benchmark at each interval, estimate
// per-PC retire and D-cache-miss counts as (samples × interval), and
// compare against the simulator's exact counts.
//
// Sampling runs in the fast functional mode by default (instruction
// stream + memory hierarchy, no pipeline timing): the estimator's
// convergence depends only on the sampling process, which is identical,
// and this keeps the paper's trace lengths tractable. Set UseTiming to run
// the full pipeline with the real ProfileMe unit instead; the two modes
// are cross-validated in the experiment tests.
func figure3(cfg figure3Config) (*figure3Result, error) {
	names := cfg.Benchmarks
	if len(names) == 0 {
		names = workload.Names()
	}
	// Enumerate the benchmark×interval cells and draw each cell's
	// randomness from the shared RNG in sequential loop order BEFORE
	// fanning out, so the parallel run is cell-for-cell identical to the
	// sequential one.
	type cell struct {
		bench    workload.Benchmark
		interval float64
		seed     uint64     // timing mode
		rng      *stats.RNG // fast mode
	}
	rng := stats.NewRNG(cfg.Seed)
	var cells []cell
	for _, name := range names {
		bench, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig3: unknown benchmark %q", name)
		}
		for _, interval := range cfg.Intervals {
			c := cell{bench: bench, interval: interval}
			if cfg.UseTiming {
				c.seed = rng.Uint64()
			} else {
				c.rng = rng.Split()
			}
			cells = append(cells, c)
		}
	}

	series, err := runner.Map(len(cells), func(i int) (figure3Series, error) {
		c := cells[i]
		var s figure3Series
		var err error
		if cfg.UseTiming {
			s, err = convergenceRunTiming(c.bench, cfg.Scale, c.interval, c.seed)
		} else {
			s, err = convergenceRun(c.bench, cfg.Scale, c.interval, c.rng)
		}
		if err != nil {
			return figure3Series{}, fmt.Errorf("fig3: %s: %w", c.bench.Name, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &figure3Result{Series: series}, nil
}

// convergenceRun samples the functional instruction stream, filling the
// join's rows itself: per static instruction, its executions and D-cache
// misses are the truths, the sampled ones the counts.
func convergenceRun(bench workload.Benchmark, scale int, interval float64, rng *stats.RNG) (figure3Series, error) {
	prog := bench.Build(scale)
	hier := mem.NewHierarchy(mem.DefaultConfig())
	retire := make([]profile.JoinRow, prog.Len()) // indexed by PC/4
	misses := make([]profile.JoinRow, prog.Len())
	m := sim.New(prog)
	countdown := rng.Geometric(interval)

	for !m.Halted() {
		rec, ok, err := m.Step()
		if err != nil {
			return figure3Series{}, err
		}
		if !ok {
			break
		}
		i := rec.PC / isa.InstBytes
		retire[i].Truth++
		miss := rec.Inst.Op.IsMem() && hier.Data(rec.EA).L1Miss
		if miss {
			misses[i].Truth++
		}
		countdown--
		if countdown <= 0 {
			countdown = rng.Geometric(interval)
			retire[i].K++
			if miss {
				misses[i].K++
			}
		}
	}
	for i := range retire {
		pc := uint64(i) * isa.InstBytes
		retire[i].PC, retire[i].Estimate = pc, float64(retire[i].K)*interval
		misses[i].PC, misses[i].Estimate = pc, float64(misses[i].K)*interval
	}
	return figure3Series{Benchmark: bench.Name, Interval: interval, Retire: figure3Points(retire), DMiss: figure3Points(misses)}, nil
}

// convergenceRunTiming is convergenceRun on the full timing pipeline with
// the real ProfileMe hardware: per-PC sample counts come from delivered
// records, actual counts from the pipeline's exact profile.
func convergenceRunTiming(bench workload.Benchmark, scale int, interval float64, seed uint64) (figure3Series, error) {
	prog := bench.Build(scale)
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = interval
	ucfg.BufferDepth = 64
	ucfg.Seed = seed | 1
	// The database counts retired samples per PC; a retired sample that
	// also missed the D-cache has no database count of its own.
	sampledMiss := make(map[uint64]uint64)
	sh, err := runner.RunShard(context.TODO(), prog, ccfg, ucfg, nil, func(ss []core.Sample) {
		for _, s := range ss {
			if r := s.First; r.Retired() && r.Events.Has(core.EvDCacheMiss) {
				sampledMiss[r.PC]++
			}
		}
	})
	if err != nil {
		return figure3Series{}, err
	}
	rows, s := retireJoin(sh)
	if s == 0 {
		return figure3Series{}, fmt.Errorf("no samples")
	}
	// The exact profile has no D-cache-miss slot: the pipeline counts
	// misses at retirement, the database on samples of any fate.
	perPC := sh.Pipeline.PerPC()
	misses := make([]profile.JoinRow, len(rows))
	for i, r := range rows {
		k := sampledMiss[r.PC]
		misses[i] = profile.JoinRow{PC: r.PC, K: k, Estimate: float64(k) * s, Truth: perPC[r.PC/isa.InstBytes].DCacheMiss}
	}
	return figure3Series{Benchmark: bench.Name, Interval: interval, Retire: figure3Points(rows), DMiss: figure3Points(misses)}, nil
}

// figure3Points keeps the rows with both samples and a truth as (samples,
// estimate ÷ truth) points, the one ratio rule of both sampling modes.
func figure3Points(rows []profile.JoinRow) []figure3Point {
	var ps []figure3Point
	for _, r := range rows {
		if r.K > 0 && r.Truth > 0 {
			ps = append(ps, figure3Point{PC: r.PC, Samples: r.K, Ratio: r.Estimate / float64(r.Truth)})
		}
	}
	return ps
}

// retireJoin joins a shard's retired samples to its exact retirements at
// the retire-share scale Σ truth ÷ Σ k, where the estimates sum to the
// truth. The scale is 0 when nothing retired was sampled.
func retireJoin(sh runner.Shard) ([]profile.JoinRow, float64) {
	exact := runner.Exact(sh.Pipeline)
	var k, truth uint64
	for _, r := range profile.Join(sh.DB, exact, (*profile.PCAccum).Retired, 1) {
		k, truth = k+r.K, truth+r.Truth
	}
	if k == 0 {
		return nil, 0
	}
	s := float64(truth) / float64(k)
	return profile.Join(sh.DB, exact, (*profile.PCAccum).Retired, s), s
}

// Check verifies the paper's claims: estimates are unbiased (mean ratio
// near 1), relative error shrinks as 1/sqrt(samples) — the ±1 stddev
// envelope holds roughly two-thirds of the points — and shorter sampling
// intervals converge tighter on the same workload.
func (r *figure3Result) Check() error {
	// Pool points across benchmarks per interval.
	byInterval := map[float64][]figure3Point{}
	for _, s := range r.Series {
		byInterval[s.Interval] = append(byInterval[s.Interval], s.Retire...)
	}
	var intervals []float64
	for iv := range byInterval {
		intervals = append(intervals, iv)
	}
	sort.Float64s(intervals)
	prevErr := -1.0
	for _, iv := range intervals {
		points := byInterval[iv]
		// Restrict the checks to PCs expected to draw a meaningful number
		// of samples; tiny-count points are dominated by discreteness.
		var strong []figure3Point
		var ratioSum float64
		for _, p := range points {
			if p.expected() >= 16 {
				strong = append(strong, p)
				ratioSum += p.Ratio
			}
		}
		if len(strong) < 10 {
			continue
		}
		meanRatio := ratioSum / float64(len(strong))
		if err := checkf(meanRatio > 0.9 && meanRatio < 1.1,
			"fig3: interval %.0f: mean ratio %.3f biased", iv, meanRatio); err != nil {
			return err
		}
		frac := envelopeFraction(strong)
		if err := checkf(frac > 0.45 && frac < 0.95,
			"fig3: interval %.0f: envelope holds %.2f of points, want ~2/3", iv, frac); err != nil {
			return err
		}
		medErr := medianAbsError(strong)
		if prevErr >= 0 {
			if err := checkf(medErr >= prevErr*0.8,
				"fig3: error did not grow with interval: %.4f then %.4f", prevErr, medErr); err != nil {
				return err
			}
		}
		prevErr = medErr
	}
	return nil
}

// Render summarizes the series like the figure's panels.
func (r *figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3 — convergence of sampled estimates (ratio estimated/actual)\n")
	fmt.Fprintf(&b, "%-10s %9s | %7s %9s %9s | %7s %9s %9s\n",
		"benchmark", "interval", "ret.pts", "ret.medE", "ret.env", "dms.pts", "dms.medE", "dms.env")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-10s %9.0f | %7d %9.4f %9.2f | %7d %9.4f %9.2f\n",
			s.Benchmark, s.Interval,
			len(s.Retire), medianAbsError(s.Retire), envelopeFraction(s.Retire),
			len(s.DMiss), medianAbsError(s.DMiss), envelopeFraction(s.DMiss))
	}
	b.WriteString("\n(medE = median |ratio-1|; env = fraction inside the 1±1/sqrt(x) envelope, expected ~2/3)\n")
	return b.String()
}
