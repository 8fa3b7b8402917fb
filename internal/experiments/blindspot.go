package experiments

import (
	"context"
	"fmt"
	"strings"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/counters"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/runner"
	"profileme/internal/sim"
)

// blindSpotConfig parameterizes the §2.2 blind-spot experiment.
type blindSpotConfig struct {
	Iters        int
	Period       uint64  // counter overflow period
	MeanInterval float64 // ProfileMe sampling interval
}

// defaultBlindSpotConfig returns the standard run.
func defaultBlindSpotConfig(quick bool) blindSpotConfig {
	return blindSpotConfig{Iters: pick(quick, 20_000, 8000), Period: 37, MeanInterval: 41}
}

// blindSpotResult compares how the two profiling approaches attribute
// samples to an uninterruptible code region.
type blindSpotResult struct {
	// TrueShare is the fraction of retired instructions that lie inside
	// the uninterruptible procedure (ground truth).
	TrueShare float64
	// CounterShare is the fraction of event-counter interrupt PCs inside
	// the region (expected ~0: interrupts defer until the region exits).
	CounterShare float64
	// CounterAfterShare is the fraction landing on the first instructions
	// after the region — the pile-up the paper predicts.
	CounterAfterShare float64
	// ProfileShare is the fraction of ProfileMe sample PCs inside the
	// region (expected ~TrueShare).
	ProfileShare   float64
	CounterSamples uint64
	ProfileSamples uint64
}

// blindSpotProgram: main alternates between two procedures doing the same
// work; "pal" stands in for uninterruptible high-priority code.
const blindSpotSrc = `
.equ ITERS, %d
.proc main
    add  r20, ra, #0
    lda  r1, ITERS(zero)
    lda  r16, buf(zero)
loop:
    jsr  ra, pal
    jsr  ra, user
    sub  r1, r1, #1
    bne  r1, loop
    ret  (r20)
.endp

.proc pal
    ld   r2, 0(r16)
    add  r3, r3, r2
    add  r4, r4, #1
    mul  r5, r5, #3
    add  r6, r6, #2
    st   r3, 8(r16)
    add  r7, r7, #3
    ret  (ra)
.endp

.proc user
    ld   r8, 16(r16)
    add  r9, r9, r8
    add  r10, r10, #1
    mul  r11, r11, #5
    add  r12, r12, #2
    st   r9, 24(r16)
    add  r13, r13, #3
    ret  (ra)
.endp
.data
.org 0x20000
buf:
    .word 1, 0, 2, 0
`

// blindSpot reproduces the §2.2 blind-spot limitation: performance-counter
// interrupts are deferred while high-priority (PALcode-like) code runs, so
// its events are misattributed to the code that follows; ProfileMe records
// the sampled instruction's PC in hardware at selection time and has no
// blind spot.
func blindSpot(cfg blindSpotConfig) (*blindSpotResult, error) {
	prog, err := asm.Assemble(fmt.Sprintf(blindSpotSrc, cfg.Iters))
	if err != nil {
		return nil, fmt.Errorf("blindspot: %w", err)
	}
	pal := prog.ProcByName("pal")
	if pal == nil {
		return nil, fmt.Errorf("blindspot: no pal procedure")
	}
	inPal := func(pc uint64) bool { return pal.Contains(pc) }
	// The "after" window: the return site in main plus the user entry.
	afterLo, afterHi := pal.End, pal.End+6*isa.InstBytes

	ccfg := cpu.DefaultConfig()
	ccfg.UninterruptibleStart, ccfg.UninterruptibleEnd = pal.Start, pal.End
	ccfg.InterruptCost = 0

	res := &blindSpotResult{}

	// Run 1: event counters monitoring retired instructions.
	var ctrIn, ctrAfter, ctrTotal uint64
	ctr := counters.New(
		counters.Config{Monitor: counters.EventRetired, Period: cfg.Period, Skid: 6, SkidJitter: 4, Seed: 5},
		func(pc uint64) {
			ctrTotal++
			if inPal(pc) {
				ctrIn++
			}
			if pc >= afterLo && pc < afterHi {
				ctrAfter++
			}
		})
	pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), ccfg)
	if err != nil {
		return nil, err
	}
	pipe.AttachCounters(ctr)
	if _, err := pipe.Run(0); err != nil {
		return nil, err
	}
	var palRetired, allRetired uint64
	for _, st := range pipe.PerPC() {
		allRetired += st.Retired
		if inPal(st.PC) {
			palRetired += st.Retired
		}
	}
	if allRetired == 0 || ctrTotal == 0 {
		return nil, fmt.Errorf("blindspot: empty counter run")
	}
	res.TrueShare = float64(palRetired) / float64(allRetired)
	res.CounterShare = float64(ctrIn) / float64(ctrTotal)
	res.CounterAfterShare = float64(ctrAfter) / float64(ctrTotal)
	res.CounterSamples = ctrTotal

	// Run 2: ProfileMe sampling on the same machine configuration.
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = cfg.MeanInterval
	ucfg.BufferDepth = 16
	sh, err := runner.RunShard(context.TODO(), prog, ccfg, ucfg, nil, nil)
	if err != nil {
		return nil, err
	}
	var pmIn, pmTotal uint64
	for _, pc := range sh.DB.PCs() {
		n := sh.DB.Get(pc).Retired()
		pmTotal += n
		if inPal(pc) {
			pmIn += n
		}
	}
	if pmTotal == 0 {
		return nil, fmt.Errorf("blindspot: no ProfileMe samples")
	}
	res.ProfileShare = float64(pmIn) / float64(pmTotal)
	res.ProfileSamples = pmTotal
	return res, nil
}

// Check verifies the paper's claim: the counter profile has a blind spot
// over the uninterruptible code (large under-attribution, with the
// deferred interrupts piling up just after the region), while ProfileMe
// attributes the region close to its true share.
func (r *blindSpotResult) Check() error {
	if err := checkf(r.TrueShare > 0.15,
		"blindspot: region share %.2f too small to measure", r.TrueShare); err != nil {
		return err
	}
	if err := checkf(r.CounterShare < 0.5*r.TrueShare,
		"blindspot: counters attribute %.2f inside the region (true %.2f) — no blind spot",
		r.CounterShare, r.TrueShare); err != nil {
		return err
	}
	if err := checkf(r.CounterAfterShare > r.TrueShare,
		"blindspot: deferred interrupts do not pile up after the region (%.2f)",
		r.CounterAfterShare); err != nil {
		return err
	}
	return checkf(r.ProfileShare > 0.7*r.TrueShare && r.ProfileShare < 1.3*r.TrueShare,
		"blindspot: ProfileMe share %.2f far from true %.2f", r.ProfileShare, r.TrueShare)
}

// Render prints the comparison.
func (r *blindSpotResult) Render() string {
	var b strings.Builder
	b.WriteString("Blind spots (§2.2) — attribution of samples to uninterruptible code\n")
	fmt.Fprintf(&b, "true share of retired instructions in the region: %5.1f%%\n", 100*r.TrueShare)
	fmt.Fprintf(&b, "event counters   (%6d interrupts): %5.1f%% inside, %5.1f%% piled just after\n",
		r.CounterSamples, 100*r.CounterShare, 100*r.CounterAfterShare)
	fmt.Fprintf(&b, "ProfileMe        (%6d samples)   : %5.1f%% inside\n",
		r.ProfileSamples, 100*r.ProfileShare)
	return b.String()
}
