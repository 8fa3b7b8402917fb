package experiments

import (
	"fmt"
	"strings"

	"profileme/internal/isa"
	"profileme/internal/pathprof"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// figure6Config parameterizes the path-reconstruction experiment.
type figure6Config struct {
	Benchmarks     []string // suite subset (empty = branchy members + generated programs)
	Scale          int
	GeneratedSeeds []uint64 // extra procedurally-generated programs
	Eval           pathprof.EvalConfig
}

// defaultFigure6Config evaluates the branchy suite members plus two
// generated programs at the paper's history lengths (hardware of the era
// kept 8-12 bits; we sweep 1-16 like the figure's X axis).
func defaultFigure6Config(quick bool) figure6Config {
	eval := pathprof.DefaultEvalConfig()
	eval.MaxInst = 400_000
	eval.SampleInterval = 229
	cfg := figure6Config{
		Benchmarks:     []string{"compress", "gcc", "go", "perl", "vortex"},
		Scale:          400_000,
		GeneratedSeeds: []uint64{11, 23},
		Eval:           eval,
	}
	if quick {
		cfg.Benchmarks, cfg.GeneratedSeeds = []string{"compress", "gcc"}, []uint64{11}
		cfg.Scale, cfg.Eval.MaxInst = 120_000, 120_000
	}
	return cfg
}

// figure6Result aggregates reconstruction success over all programs:
// Cells[mode][scheme][lenIdx].
type figure6Result struct {
	HistoryLens []int
	Modes       []pathprof.Mode
	Cells       [][]([]pathprof.Cell) // [mode][scheme][len]
	PerProgram  map[string][]*pathprof.ModeResult
}

// figure6 reproduces the §5.3 experiment: for each program, sample
// instructions with their global branch history and reconstruct the
// execution path backward through the CFG under the three schemes, in both
// intra- and inter-procedural modes.
func figure6(cfg figure6Config) (*figure6Result, error) {
	type namedProg struct {
		name string
		prog *isa.Program
	}
	var progs []namedProg
	for _, name := range cfg.Benchmarks {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig6: unknown benchmark %q", name)
		}
		progs = append(progs, namedProg{name, b.Build(cfg.Scale)})
	}
	for _, seed := range cfg.GeneratedSeeds {
		gc := workload.DefaultGenConfig()
		gc.Seed = seed
		gc.MainIters = cfg.Scale / 250
		progs = append(progs, namedProg{fmt.Sprintf("gen-%d", seed), workload.Generate(gc)})
	}

	res := &figure6Result{
		HistoryLens: cfg.Eval.HistoryLens,
		Modes:       cfg.Eval.Modes,
		PerProgram:  make(map[string][]*pathprof.ModeResult),
	}
	res.Cells = make([][]([]pathprof.Cell), len(cfg.Eval.Modes))
	for mi := range res.Cells {
		res.Cells[mi] = make([][]pathprof.Cell, pathprof.NumSchemes)
		for si := range res.Cells[mi] {
			res.Cells[mi][si] = make([]pathprof.Cell, len(cfg.Eval.HistoryLens))
		}
	}

	// Each program's evaluation is self-contained (pathprof derives its
	// randomness from cfg.Eval per program), so programs fan out across
	// the worker pool; pooling happens afterwards in program order, so
	// the totals match the sequential loop exactly.
	perProg, err := runner.Map(len(progs), func(i int) ([]*pathprof.ModeResult, error) {
		results, err := pathprof.Evaluate(progs[i].prog, cfg.Eval)
		if err != nil {
			return nil, fmt.Errorf("fig6: %s: %w", progs[i].name, err)
		}
		return results, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, results := range perProg {
		res.PerProgram[progs[pi].name] = results
		for mi, mr := range results {
			for si := 0; si < pathprof.NumSchemes; si++ {
				for li := range cfg.Eval.HistoryLens {
					res.Cells[mi][si][li].Success += mr.Cells[si][li].Success
					res.Cells[mi][si][li].Total += mr.Cells[si][li].Total
				}
			}
		}
	}
	return res, nil
}

// rate returns the pooled success rate.
func (r *figure6Result) rate(mode int, s pathprof.Scheme, lenIdx int) float64 {
	return r.Cells[mode][int(s)][lenIdx].Rate()
}

// Check verifies the figure's claims: branch history beats execution
// counts, paired samples improve on history alone, interprocedural paths
// are harder than intraprocedural ones, and accuracy falls as the history
// grows.
func (r *figure6Result) Check() error {
	for mi := range r.Modes {
		// Compare at a mid-range history length (8, the era's hardware).
		li := indexOf(r.HistoryLens, 8)
		if li < 0 {
			li = len(r.HistoryLens) / 2
		}
		hist := r.rate(mi, pathprof.SchemeHistory, li)
		exec := r.rate(mi, pathprof.SchemeExecCounts, li)
		pair := r.rate(mi, pathprof.SchemeHistoryPair, li)
		if err := checkf(hist > exec,
			"fig6: %v: history %.3f not above exec-counts %.3f", r.Modes[mi], hist, exec); err != nil {
			return err
		}
		if err := checkf(pair >= hist,
			"fig6: %v: pairs %.3f below history %.3f", r.Modes[mi], pair, hist); err != nil {
			return err
		}
		// Accuracy decreases with history length (first vs last).
		first := r.rate(mi, pathprof.SchemeHistory, 0)
		last := r.rate(mi, pathprof.SchemeHistory, len(r.HistoryLens)-1)
		if err := checkf(last <= first+0.02,
			"fig6: %v: accuracy rose with history length (%.3f -> %.3f)", r.Modes[mi], first, last); err != nil {
			return err
		}
	}
	// Interprocedural is harder than intraprocedural at the longest
	// length (paths must consume the full history through call chains).
	if len(r.Modes) == 2 {
		li := len(r.HistoryLens) - 1
		intra := r.rate(0, pathprof.SchemeHistory, li)
		inter := r.rate(1, pathprof.SchemeHistory, li)
		if err := checkf(inter <= intra+0.05,
			"fig6: interprocedural %.3f above intraprocedural %.3f", inter, intra); err != nil {
			return err
		}
	}
	return nil
}

// Render prints the pooled success-rate curves, one block per mode.
func (r *figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6 — path reconstruction success rate vs branch-history length\n")
	for mi, mode := range r.Modes {
		fmt.Fprintf(&b, "\n%s:\n%-8s", mode, "hist")
		for s := pathprof.Scheme(0); int(s) < pathprof.NumSchemes; s++ {
			fmt.Fprintf(&b, " %14s", s)
		}
		b.WriteString("\n")
		for li, hl := range r.HistoryLens {
			fmt.Fprintf(&b, "%-8d", hl)
			for s := pathprof.Scheme(0); int(s) < pathprof.NumSchemes; s++ {
				fmt.Fprintf(&b, " %13.1f%%", 100*r.rate(mi, s, li))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
