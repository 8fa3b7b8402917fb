package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// The §5.2 claims that paired samples carry beyond the per-instruction
// profile: control-flow and call-graph edge frequencies (edges) and the
// pipeline state around an instruction (pipestate).

// diamondSrc is a loop around a data-dependent diamond whose branch is
// taken about one iteration in eight.
const diamondSrc = `
.proc main
    lda  r1, 60000(zero)
    lda  r5, 7(zero)
loop:
    mul  r5, r5, #48271
    srl  r6, r5, #16
    and  r6, r6, #7
    beq  r6, rare              ; taken ~1/8 of the time
    add  r3, r3, #1
    br   next
rare:
    add  r4, r4, #1
next:
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`

// callsSrc calls alpha and beta once each per iteration, 2,000 times.
const callsSrc = `
.proc main
    add r20, ra, #0
    lda r1, 2000(zero)
mloop:
    jsr ra, alpha
    jsr ra, beta
    sub r1, r1, #1
    bne r1, mloop
    ret (r20)
.endp
.proc alpha
    add r2, r2, #1
    ret (ra)
.endp
.proc beta
    add r3, r3, #1
    add r4, r4, #1
    ret (ra)
.endp`

// edgeRow is one control-flow edge: its true executions beside its
// distance-1 observations k and their estimate k·S·W.
type edgeRow struct {
	Edge     string
	Truth, K uint64
	Estimate float64
}

func (e edgeRow) String() string {
	return fmt.Sprintf("%s: %d executions, k=%d, estimate %.0f (%+.1f%%)",
		e.Edge, e.Truth, e.K, e.Estimate, 100*(e.Estimate/float64(e.Truth)-1))
}

// edgesResult holds the three §5.2 edge runs: pairs at fetch distance 1
// observe one dynamic edge each, so k observations estimate k·S·W
// executions.
type edgesResult struct {
	Hot    edgeRow // compress's hottest edge, at the realized interval
	Lo, Hi float64 // Hot's 3-sigma interval
	// The diamond's branch edges and back edge, at the nominal interval.
	Taken, Fall, Back edgeRow
	Calls             []edgeRow // caller -> callee, one per call site
}

// edgeFrequencies runs the three edge programs; each has one
// configuration, which -quick runs too.
func edgeFrequencies(bool) (Result, error) {
	r := &edgesResult{}
	runs := []func() error{r.hottest, r.diamond, r.callGraph}
	// Each run writes its own fields of r and nothing else.
	if _, err := runner.Map(len(runs), func(i int) (struct{}, error) { return struct{}{}, runs[i]() }); err != nil {
		return nil, fmt.Errorf("edges: %w", err)
	}
	return r, nil
}

// pairedShard runs prog with paired sampling and no interrupt cost; also
// sees every delivered sample batch.
func pairedShard(prog *isa.Program, interval float64, window, depth int, seed uint64, also func([]core.Sample)) (runner.Shard, error) {
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	return runner.RunShard(context.TODO(), prog, ccfg, core.Config{
		Paired: true, MeanInterval: interval, Window: window, BufferDepth: depth,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: seed,
	}, nil, also)
}

// edgeShard runs prog on pairedShard, feeding a fresh edge profile at the
// nominal interval.
func edgeShard(prog *isa.Program, interval float64, window int, seed uint64) (runner.Shard, *profile.EdgeProfile, error) {
	edges := profile.NewEdgeProfile(interval, window)
	sh, err := pairedShard(prog, interval, window, 32, seed, edges.Handler())
	return sh, edges, err
}

// row reads one edge off the profile.
func row(edges *profile.EdgeProfile, name string, from, to, truth uint64) edgeRow {
	return edgeRow{Edge: name, Truth: truth, K: edges.Observations(from, to), Estimate: edges.Estimate(from, to)}
}

// hottest finds compress's hottest edge in the functional stream and
// estimates it at the realized sampling interval.
func (r *edgesResult) hottest() error {
	const window = 10
	prog := workload.Compress(1_000_000)
	truth := make(map[[2]uint64]uint64)
	if _, err := sim.New(prog).Run(0, func(rec sim.Record) { truth[[2]uint64{rec.PC, rec.Target}]++ }); err != nil {
		return err
	}
	var hot [2]uint64
	for e, n := range truth {
		if n > truth[hot] || n == truth[hot] && (e[0] < hot[0] || e[0] == hot[0] && e[1] < hot[1]) {
			hot = e
		}
	}
	sh, edges, err := edgeShard(prog, 50, window, 9)
	if err != nil {
		return err
	}
	sh.DB.Realize(sh.Result.FetchedOnPath)
	edges.S = sh.DB.S
	r.Hot = row(edges, fmt.Sprintf("%#x->%#x", hot[0], hot[1]), hot[0], hot[1], truth[hot])
	r.Lo, r.Hi = profile.ConfidenceInterval(r.Hot.K, edges.S*window, 3)
	return nil
}

// diamond reads the diamond's two branch edges and its back edge.
func (r *edgesResult) diamond() error {
	prog, err := asm.Assemble(diamondSrc)
	if err != nil {
		return err
	}
	sh, edges, err := edgeShard(prog, 60, 40, 11)
	if err != nil {
		return err
	}
	stats := sh.Pipeline.PerPC()
	loop, _ := prog.Label("loop")
	rare, _ := prog.Label("rare")
	next, _ := prog.Label("next")
	beq, bne := loop+3*isa.InstBytes, next+isa.InstBytes
	b := stats[beq/isa.InstBytes]
	r.Taken = row(edges, "beq->rare", beq, rare, b.Taken)
	r.Fall = row(edges, "beq->fall-through", beq, beq+isa.InstBytes, b.Retired-b.Taken)
	r.Back = row(edges, "bne->loop", bne, loop, stats[bne/isa.InstBytes].Taken)
	return nil
}

// callGraph reads the edge from every call site into its callee's entry.
func (r *edgesResult) callGraph() error {
	prog, err := asm.Assemble(callsSrc)
	if err != nil {
		return err
	}
	sh, edges, err := edgeShard(prog, 23, 20, 4)
	if err != nil {
		return err
	}
	stats := sh.Pipeline.PerPC()
	for i, in := range prog.Insts {
		if in.Op.Class() == isa.ClassCall {
			site := uint64(i) * isa.InstBytes
			name := prog.ProcAt(site).Name + "->" + prog.ProcAt(in.Target).Name
			r.Calls = append(r.Calls, row(edges, name, site, in.Target, stats[i].Retired))
		}
	}
	return nil
}

// Check asserts each edge estimate against its truth: the hottest edge
// inside its 3-sigma interval on 30+ observations, the diamond's taken
// fraction near its true ~1/8 and its back edge within 3x, and a call
// graph of main -> alpha and main -> beta whose estimates are within
// noise of the true 2,000 calls each.
func (r *edgesResult) Check() error {
	k, back := r.Taken.K+r.Fall.K, float64(r.Back.Truth)
	frac := float64(r.Taken.K) / float64(k)
	calls := map[string]bool{}
	for _, c := range r.Calls {
		if c.K > 0 {
			calls[c.Edge] = strings.HasPrefix(c.Edge, "main->") && c.Estimate >= 400 && c.Estimate <= 8000
		}
	}
	return errors.Join(
		r.checkHot(),
		checkf(k > 0 && frac >= 0.04 && frac <= 0.25, "edges: estimated taken fraction %.3f on %d observations, true ~0.125", frac, k),
		checkf(r.Back.Estimate >= back/3 && r.Back.Estimate <= back*3, "edges: back-edge estimate %.0f vs true %.0f", r.Back.Estimate, back),
		checkf(len(calls) == 2 && calls["main->alpha"] && calls["main->beta"], "edges: call graph %v, want main->alpha and main->beta near 2000 each", r.Calls),
	)
}

// checkHot asserts the hottest edge's true count inside its 3-sigma
// interval on 30+ observations.
func (r *edgesResult) checkHot() error {
	n := float64(r.Hot.Truth)
	return checkf(r.Hot.K >= 30 && r.Lo <= n && n <= r.Hi, "edges: the hottest edge's estimate is not within 3 sigma on 30+ observations")
}

// Render prints one line per estimated edge.
func (r *edgesResult) Render() string {
	var b strings.Builder
	b.WriteString("§5.2 edge frequencies from paired samples at fetch distance 1\n")
	fmt.Fprintf(&b, "hottest edge %s, 3-sigma [%.0f, %.0f]\n", r.Hot, r.Lo, r.Hi)
	fmt.Fprintf(&b, "diamond %s\ndiamond %s\n", r.Taken, r.Fall)
	fmt.Fprintf(&b, "diamond taken fraction %.3f estimated, %.3f true\n", float64(r.Taken.K)/float64(r.Taken.K+r.Fall.K),
		float64(r.Taken.Truth)/float64(r.Taken.Truth+r.Fall.Truth))
	fmt.Fprintf(&b, "diamond back edge %s\n", r.Back)
	for _, c := range r.Calls {
		fmt.Fprintf(&b, "call %s\n", c)
	}
	return b.String()
}

// CSV renders every estimated edge as edge,executions,k,estimate.
func (r *edgesResult) CSV() string {
	var b strings.Builder
	b.WriteString("edge,executions,k,estimate\n")
	for _, e := range append([]edgeRow{r.Hot, r.Taken, r.Fall, r.Back}, r.Calls...) {
		fmt.Fprintf(&b, "%s,%d,%d,%.0f\n", e.Edge, e.Truth, e.K, e.Estimate)
	}
	return b.String()
}

// The pipeline-state reconstruction's cycle offsets from the target's
// fetch, and the rendering's step through them.
const (
	pipestateMinDelta, pipestateMaxDelta = -20, 60
	pipestateStep                        = 10
)

// pipestateResult reconstructs the pipeline state around one instruction
// of Figure 7's serial loop and one of its parallel loop (§5.2: "it may
// be possible to statistically reconstruct detailed processor pipeline
// states from paired samples").
type pipestateResult struct {
	Serial, Parallel *profile.PipelineProfile
}

// pipelineState runs the Figure 7 program once per target instruction;
// there is one configuration, which -quick runs too.
func pipelineState(bool) (Result, error) {
	prog := workload.Figure7Program(2500)
	loops := workload.Figure7Loops(prog)
	targets := []uint64{
		loops["A-serial"][0],
		loops["C-parallel"][0] + 3*4, // an add amid the parallel work
	}
	pps, err := runner.Map(len(targets), func(i int) (*profile.PipelineProfile, error) {
		pp := profile.NewPipelineProfile(targets[i], 80, pipestateMinDelta, pipestateMaxDelta)
		_, err := pairedShard(prog, 30, 80, 64, 13, pp.Handler())
		return pp, err
	})
	if err != nil {
		return nil, fmt.Errorf("pipestate: %w", err)
	}
	return &pipestateResult{Serial: pps[0], Parallel: pps[1]}, nil
}

// Check asserts the reconstructed state composition at the target's
// fetch: around the serial-loop instruction the issue queue is clogged
// with neighbors waiting on the dependence chain, while around the
// high-ILP instruction operands are ready and the queue stays nearly
// empty.
func (r *pipestateResult) Check() error {
	qA, _ := r.Serial.Occupancy(0, profile.PhaseQueue)
	eA, _ := r.Serial.Occupancy(0, profile.PhaseExecute)
	qC, _ := r.Parallel.Occupancy(0, profile.PhaseQueue)
	return errors.Join(
		checkf(r.Serial.Pairs() >= 20 && r.Parallel.Pairs() >= 20, "pipestate: too few pair views: %d / %d", r.Serial.Pairs(), r.Parallel.Pairs()),
		checkf(qA >= 3*eA, "pipestate: serial loop state not queue-dominated: queue %.1f, execute %.1f", qA, eA),
		checkf(qA >= 2.5*qC+1, "pipestate: serial loop queue occupancy %.1f not well above parallel %.1f", qA, qC),
	)
}

// Render prints each target's occupancy by phase, every pipestateStep
// cycles.
func (r *pipestateResult) Render() string {
	var b strings.Builder
	b.WriteString("§5.2 pipeline state — in-flight neighbors by phase around one Figure 7 instruction\n")
	b.WriteString("A-serial: " + r.Serial.Render(pipestateStep))
	b.WriteString("C-parallel: " + r.Parallel.Render(pipestateStep))
	return b.String()
}

// CSV renders every reconstructed cycle offset as
// loop,pc,delta,front-end,queue,execute,wait-retire,total.
func (r *pipestateResult) CSV() string {
	var b strings.Builder
	b.WriteString("loop,pc,delta,front-end,queue,execute,wait-retire,total\n")
	for i, pp := range []*profile.PipelineProfile{r.Serial, r.Parallel} {
		for d := int64(pipestateMinDelta); d <= pipestateMaxDelta; d++ {
			fmt.Fprintf(&b, "%s,%#x,%d", []string{"A-serial", "C-parallel"}[i], pp.TargetPC, d)
			var total float64
			for ph := profile.PhaseFrontEnd; ph <= profile.PhaseWaitRetire; ph++ {
				v, _ := pp.Occupancy(d, ph)
				total += v
				fmt.Fprintf(&b, ",%.4f", v)
			}
			fmt.Fprintf(&b, ",%.4f\n", total)
		}
	}
	return b.String()
}
