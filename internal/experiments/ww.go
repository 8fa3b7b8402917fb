package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/runner"
	"profileme/internal/sim"
)

// wwConfig parameterizes the §8 related-work comparison against Westcott &
// White's IID-restricted instruction sampling.
type wwConfig struct {
	Scale  int
	Slot   int // profiled ROB slot for the IID sampler
	Period int // IID log period (also sets the ProfileMe interval for parity)
}

// defaultWWConfig returns the standard comparison, run at realistic
// sampling intervals: ProfileMe's selection pauses while a sample is in
// flight, so very short intervals would add a dead-time bias of its own
// (the paper's intervals, 2^10 and up, keep it negligible — ours do too).
// Sampling noise shrinks with budget; the IID sampler's structural slot
// bias does not — that is the point.
func defaultWWConfig(quick bool) wwConfig {
	return wwConfig{Scale: pick(quick, 2_000_000, 600_000), Slot: 5, Period: pick(quick, 8, 4)}
}

// wwProgram builds the comparison workload: a regular, well-predicted
// 40-instruction loop. Its length divides the 80-entry reorder buffer, so
// each static instruction lands on the same ROB slots lap after lap —
// the structural aliasing that makes IID-restricted sampling unable to
// observe most of the program ("ProfileMe allows any instruction to be
// sampled; this is essential for obtaining a random sample of the entire
// instruction stream", §8). The handful of data-dependent branches give
// ProfileMe aborted instructions to expose.
func wwProgram(scale int) *isa.Program {
	iters := scale * 4 / 5 / 40 // phase 1 gets ~80% of the instructions
	if iters < 200 {
		iters = 200
	}
	branchy := scale / 5 / 10
	if branchy < 100 {
		branchy = 100
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".equ ITERS, %d\n.equ BRANCHY, %d\n", iters, branchy)
	// Phase 1: a perfectly-predicted, constant-length 40-instruction
	// loop. 40 divides the 80-entry ROB, so each static instruction
	// cycles over exactly two slots forever: the IID sampler's slot sees
	// only one of the 40.
	b.WriteString(".proc main\n    lda r1, ITERS(zero)\n    lda r16, buf(zero)\nloop:\n")
	b.WriteString("    ld   r2, 0(r16)\n")
	for i := 0; i < 37; i++ {
		fmt.Fprintf(&b, "    add  r%d, r%d, #%d\n", 3+i%13, 3+i%13, i+1)
	}
	b.WriteString("    sub  r1, r1, #1\n    bne  r1, loop\n")
	// Phase 2: a branchy, unpredictable loop so ProfileMe has aborted
	// (wrong-path) instructions to expose.
	b.WriteString("    lda  r1, BRANCHY(zero)\n    lda r5, 99991(zero)\nbr_loop:\n")
	b.WriteString("    mul  r5, r5, #48271\n")
	b.WriteString("    srl  r6, r5, #16\n")
	b.WriteString("    and  r6, r6, #1\n")
	b.WriteString("    beq  r6, b_evn\n")
	b.WriteString("    add  r20, r20, #1\n")
	b.WriteString("    br   b_done\n")
	b.WriteString("b_evn:\n")
	b.WriteString("    add  r21, r21, #1\n")
	b.WriteString("b_done:\n")
	b.WriteString("    sub  r1, r1, #1\n    bne  r1, br_loop\n    ret\n.endp\n")
	b.WriteString(".data\n.org 0x20000\nbuf:\n    .word 9\n")
	prog, err := asm.Assemble(b.String())
	if err != nil {
		panic(err)
	}
	return prog
}

// wwResult compares the two samplers' per-PC coverage and bias.
type wwResult struct {
	// Coverage: fraction of hot static instructions (>=1% of retires)
	// that received at least one sample.
	IIDCoverage, PMCoverage float64
	// WorstBias: max |estimate/actual - 1| over covered hot PCs, using
	// each sampler's own realized sampling rate.
	IIDWorstBias, PMWorstBias float64
	// AbortVisible: fraction of samples showing an aborted instruction
	// (W&W discards them in hardware, so its log shows none).
	IIDAbortVisible, PMAbortVisible float64
	IIDSamples, PMSamples           uint64
}

// ww runs the comparison: the W&W sampler profiles one ROB slot of the
// two-phase workload (a regular loop plus a branchy one), ProfileMe
// samples fetched instructions at a matched rate.
//
// Unlike the other experiments, WW's two runs cannot fan out across the
// worker pool: run 2's sampling interval is derived from run 1's realized
// sample rate, so the runs are sequentially dependent by design.
func ww(cfg wwConfig) (*wwResult, error) {
	prog := wwProgram(cfg.Scale)
	res := &wwResult{}

	// Run 1: IID sampling.
	ccfg := cpu.DefaultConfig()
	iid := cpu.NewIIDSampler(cfg.Slot, cfg.Period)
	pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), ccfg)
	if err != nil {
		return nil, err
	}
	pipe.AttachIIDSampler(iid)
	r1, err := pipe.Run(0)
	if err != nil {
		return nil, err
	}
	iidCounts := iid.Retired()
	var iidTotal uint64
	for _, n := range iidCounts {
		iidTotal += n
	}
	if iidTotal == 0 {
		return nil, fmt.Errorf("ww: IID sampler logged nothing")
	}
	res.IIDSamples = iidTotal
	res.IIDAbortVisible = 0 // discarded in hardware, by design

	// Run 2: ProfileMe at a matched sample budget.
	pmInterval := float64(r1.Retired) / float64(iidTotal)
	if pmInterval < 2 {
		pmInterval = 2
	}
	ccfg2 := cpu.DefaultConfig()
	ccfg2.InterruptCost = 0
	sh, err := runner.RunShard(context.TODO(), prog, ccfg2, core.Config{
		MeanInterval: pmInterval, Window: 80, BufferDepth: 64,
		CountMode: core.CountFetchOpportunities, IntervalMode: core.IntervalGeometric, Seed: 3,
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	// The hot instructions and their truth come from run 2's exact
	// profile; retire counts are architectural, so run 1's are the same.
	// Each sampler scales by its own realized rate.
	rows, s := retireJoin(sh)
	if s == 0 {
		return nil, fmt.Errorf("ww: ProfileMe collected nothing")
	}
	var pmRetired uint64
	for _, r := range rows {
		pmRetired += r.K
	}
	// The database skips empty fetch slots, and an unpaired sample names
	// one PC: every other sample it holds is an aborted instruction.
	for _, pc := range sh.DB.PCs() {
		res.PMSamples += sh.DB.Get(pc).Samples
	}
	res.PMAbortVisible = float64(res.PMSamples-pmRetired) / float64(res.PMSamples)

	iidRate := float64(iidTotal) / float64(r1.Retired)
	var hot, iidCovered, pmCovered int
	for _, r := range rows {
		if r.Truth*100 < sh.Result.Retired { // < 1% of retires
			continue
		}
		hot++
		k := iidCounts[r.PC]
		if k > 0 {
			iidCovered++
		}
		if r.K > 0 {
			pmCovered++
		}
		res.IIDWorstBias = math.Max(res.IIDWorstBias, math.Abs(float64(k)/iidRate/float64(r.Truth)-1))
		res.PMWorstBias = math.Max(res.PMWorstBias, math.Abs(r.Estimate/float64(r.Truth)-1))
	}
	if hot == 0 {
		return nil, fmt.Errorf("ww: no hot instructions")
	}
	res.IIDCoverage = float64(iidCovered) / float64(hot)
	res.PMCoverage = float64(pmCovered) / float64(hot)
	return res, nil
}

// Check verifies the §8 contrasts: ProfileMe's random selection covers the
// hot instructions essentially completely with low bias; IID-restricted
// sampling shows structural bias (slot assignment correlates with the
// loops), and its log contains no aborted instructions while ProfileMe's
// does.
func (r *wwResult) Check() error {
	if err := checkf(r.PMCoverage > 0.95,
		"ww: ProfileMe covered only %.2f of hot instructions", r.PMCoverage); err != nil {
		return err
	}
	if err := checkf(r.PMWorstBias < 0.5,
		"ww: ProfileMe worst bias %.2f too high", r.PMWorstBias); err != nil {
		return err
	}
	if err := checkf(r.IIDWorstBias > 2*r.PMWorstBias,
		"ww: IID sampling shows no extra bias (%.2f vs %.2f)", r.IIDWorstBias, r.PMWorstBias); err != nil {
		return err
	}
	if err := checkf(r.PMAbortVisible > 0.01,
		"ww: ProfileMe shows no aborted samples (%.3f)", r.PMAbortVisible); err != nil {
		return err
	}
	return checkf(r.IIDAbortVisible == 0,
		"ww: the W&W log should contain no aborted instructions")
}

// Render prints the comparison.
func (r *wwResult) Render() string {
	var b strings.Builder
	b.WriteString("§8 comparison — ProfileMe vs Westcott & White IID-restricted sampling\n")
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "", "W&W (IID)", "ProfileMe")
	fmt.Fprintf(&b, "%-22s %12d %12d\n", "samples", r.IIDSamples, r.PMSamples)
	fmt.Fprintf(&b, "%-22s %11.1f%% %11.1f%%\n", "hot-PC coverage", 100*r.IIDCoverage, 100*r.PMCoverage)
	fmt.Fprintf(&b, "%-22s %12.2f %12.2f\n", "worst per-PC bias", r.IIDWorstBias, r.PMWorstBias)
	fmt.Fprintf(&b, "%-22s %11.1f%% %11.1f%%\n", "aborted visible", 100*r.IIDAbortVisible, 100*r.PMAbortVisible)
	return b.String()
}

// CSV renders the comparison as two rows.
func (r *wwResult) CSV() string {
	var b strings.Builder
	b.WriteString("sampler,samples,hot_coverage,worst_bias,abort_visible\n")
	fmt.Fprintf(&b, "ww-iid,%d,%.4f,%.4f,%.4f\n", r.IIDSamples, r.IIDCoverage, r.IIDWorstBias, r.IIDAbortVisible)
	fmt.Fprintf(&b, "profileme,%d,%.4f,%.4f,%.4f\n", r.PMSamples, r.PMCoverage, r.PMWorstBias, r.PMAbortVisible)
	return b.String()
}
