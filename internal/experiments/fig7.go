package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// figure7Config parameterizes the wasted-issue-slots experiment.
type figure7Config struct {
	Iters        int     // iterations per loop
	MeanInterval float64 // paired-sampling interval
	Window       int     // paired-sampling window W
	Seed         uint64
}

// defaultFigure7Config samples densely enough for per-instruction
// estimates on the three-loop program (~5M dynamic instructions; loop C
// runs 16x the base iteration count).
func defaultFigure7Config(quick bool) figure7Config {
	return figure7Config{Iters: pick(quick, 12_000, 6000), MeanInterval: 40, Window: 80, Seed: 3}
}

// figure7Point is one static instruction of the three-loop program.
type figure7Point struct {
	PC        uint64
	Loop      string  // A-serial, B-memory, C-parallel
	Latency   int64   // total fetch -> retire-ready cycles (ground truth)
	Wasted    int64   // total wasted issue slots (ground truth)
	EstWasted float64 // paired-sampling estimate
	EstOK     bool
}

// figure7Result holds all loop-body points.
type figure7Result struct {
	Points []figure7Point
	Result cpu.Result
}

// figure7 reproduces the §6 experiment (Figure 7): run the three-loop
// program with paired sampling and, for every static instruction, compare
// its total latency against the issue slots wasted while it was in
// progress — measured exactly by the omniscient simulator and estimated
// statistically from the paired samples (§5.2.3).
func figure7(cfg figure7Config) (*figure7Result, error) {
	prog := workload.Figure7Program(cfg.Iters)
	loops := workload.Figure7Loops(prog)

	ccfg := cpu.DefaultConfig()
	ccfg.TrackWastedSlots = true
	ccfg.InterruptCost = 0 // measure the program, not the profiler

	ucfg := core.Config{
		Paired:       true,
		MeanInterval: cfg.MeanInterval,
		Window:       cfg.Window,
		BufferDepth:  64,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         cfg.Seed,
	}
	sh, err := runner.RunShard(context.TODO(), prog, ccfg, ucfg, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	db, res, pipe := sh.DB, sh.Result, sh.Pipeline

	// Scale estimates by the realized sampling interval rather than the
	// nominal one: a pair occupies the hardware until both instructions
	// complete, so at short nominal intervals the effective inter-pair
	// interval is substantially longer. Profiling software knows the
	// fetched-instruction count and the sample count (DCPI scaled its
	// estimates the same way). The count is what the hardware captured,
	// not what it delivered: the database already corrects for loss.
	if captured := sh.Stats.Captured(); captured > 0 {
		db.S = float64(res.FetchedOnPath) / float64(captured)
	}

	out := &figure7Result{Result: res}
	for _, st := range pipe.PerPC() {
		if st.Retired < uint64(cfg.Iters)/2 {
			continue // only loop-body instructions
		}
		loop := ""
		for name, rng := range loops {
			if st.PC >= rng[0] && st.PC < rng[1] {
				loop = name
				break
			}
		}
		if loop == "" {
			continue
		}
		pt := figure7Point{
			PC: st.PC, Loop: loop,
			Latency: st.LatInProgress, Wasted: st.WastedSlots,
		}
		if wasted, _, _, ok := db.WastedSlots(st.PC); ok {
			pt.EstWasted, pt.EstOK = wasted, true
		}
		out.Points = append(out.Points, pt)
	}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].PC < out.Points[j].PC })
	if len(out.Points) < 10 {
		return nil, fmt.Errorf("fig7: only %d loop-body points", len(out.Points))
	}
	return out, nil
}

// byLoop groups points.
func (r *figure7Result) byLoop() map[string][]figure7Point {
	m := make(map[string][]figure7Point)
	for _, p := range r.Points {
		m[p.Loop] = append(m[p.Loop], p)
	}
	return m
}

// Check verifies the paper's claims: latency is not correlated with wasted
// slots across loops — specifically, an instruction in the high-ILP loop
// has higher total latency yet fewer wasted slots than instructions in the
// serial loop — while within a loop the two are positively related; and
// the paired-sampling estimate tracks the ground truth.
func (r *figure7Result) Check() error {
	groups := r.byLoop()
	maxLat := func(ps []figure7Point) (best figure7Point) {
		for _, p := range ps {
			if p.Latency > best.Latency {
				best = p
			}
		}
		return best
	}
	a, c := groups["A-serial"], groups["C-parallel"]
	if len(a) == 0 || len(c) == 0 {
		return fmt.Errorf("fig7: missing loop groups")
	}
	ma, mc := maxLat(a), maxLat(c)
	if err := checkf(mc.Latency > ma.Latency,
		"fig7: parallel loop's max latency %d not above serial loop's %d", mc.Latency, ma.Latency); err != nil {
		return err
	}
	if err := checkf(mc.Wasted < ma.Wasted,
		"fig7: parallel loop's high-latency instruction wastes %d slots, serial's wastes %d — latency alone would misrank them only if parallel wastes less",
		mc.Wasted, ma.Wasted); err != nil {
		return err
	}

	// Waste per issue slot available: serial should be far less efficient.
	wasteRate := func(ps []figure7Point) float64 {
		var w, l int64
		for _, p := range ps {
			w += p.Wasted
			l += p.Latency
		}
		if l == 0 {
			return 0
		}
		return float64(w) / float64(l)
	}
	if err := checkf(wasteRate(a) > wasteRate(c)*1.5,
		"fig7: serial waste rate %.2f not well above parallel %.2f", wasteRate(a), wasteRate(c)); err != nil {
		return err
	}

	// The paired-sampling estimate must track ground truth. For points
	// where waste dominates their windows the estimate must match within
	// a factor of ~2; for low-waste points the estimate is a small
	// difference of two large sampled quantities, so only the ordering is
	// meaningful — the estimator must rank the wasteful serial loop above
	// the parallel one, since ranking is what the metric is for.
	checked := 0
	for _, p := range r.Points {
		if !p.EstOK || p.Wasted < 20_000 {
			continue
		}
		trueFrac := float64(p.Wasted) / float64(4*p.Latency)
		if trueFrac < 0.3 {
			continue
		}
		checked++
		ratio := p.EstWasted / float64(p.Wasted)
		if err := checkf(ratio > 0.4 && ratio < 2.5,
			"fig7: pc %#x (%s): estimated wasted %.0f vs actual %d (ratio %.2f)",
			p.PC, p.Loop, p.EstWasted, p.Wasted, ratio); err != nil {
			return err
		}
	}
	if err := checkf(checked >= 3, "fig7: only %d high-waste estimable points", checked); err != nil {
		return err
	}
	meanEst := func(ps []figure7Point) float64 {
		var sum float64
		var n int
		for _, p := range ps {
			if p.EstOK {
				sum += p.EstWasted
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return checkf(meanEst(a) > meanEst(c),
		"fig7: estimator ranks parallel loop (%.0f) above serial loop (%.0f)",
		meanEst(c), meanEst(a))
}

// Render prints the scatter as a table, one row per static instruction.
func (r *figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — total latency vs wasted issue slots per static instruction\n")
	fmt.Fprintf(&b, "%-12s %-10s %12s %14s %14s %8s\n",
		"loop", "pc", "latency", "wasted(true)", "wasted(est)", "est/true")
	for _, p := range r.Points {
		est := "-"
		ratio := "-"
		if p.EstOK {
			est = fmt.Sprintf("%.0f", p.EstWasted)
			if p.Wasted > 0 {
				ratio = fmt.Sprintf("%.2f", p.EstWasted/float64(p.Wasted))
			}
		}
		fmt.Fprintf(&b, "%-12s %-10s %12d %14d %14s %8s\n",
			p.Loop, fmt.Sprintf("%#x", p.PC), p.Latency, p.Wasted, est, ratio)
	}
	return b.String()
}
