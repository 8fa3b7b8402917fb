// Package faultinject is the adversarial side of the reproduction: a
// deterministic, seeded fault plan that perturbs the sampling stack the way
// real machines do. The paper's statistical argument (§4.3, §6) is that
// dropped and delayed samples are acceptable *because the losses are
// random*; this package exists to make that claim falsifiable. A Plan can
//
//   - drop profile interrupts (the raise is swallowed; the buffer
//     overflows and the hardware sheds samples),
//   - delay interrupt delivery by N cycles, which in hardware lets later
//     completions overwrite the profile registers,
//   - coalesce adjacent interrupts into one delayed delivery,
//   - stall the software drain (a busy handler), starving the buffer, and
//   - bit-flip fields of in-flight core.Sample records.
//
// core.Unit and cpu.Pipeline expose hook interfaces (core.FaultInjector,
// cpu.FaultInjector); Plan implements both. Everything is driven by one
// seeded RNG consulted in simulation order, so a (seed, rates) pair
// replays exactly — chaos runs are as reproducible as clean ones.
package faultinject

import (
	"fmt"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// Rates parameterizes a Plan: per-fault probabilities in [0, 1] plus the
// durations the timing faults insert.
type Rates struct {
	// DropInterrupt is the probability an interrupt raise is swallowed.
	DropInterrupt float64
	// DelayInterrupt is the probability a raised interrupt's delivery is
	// postponed by DelayCycles.
	DelayInterrupt float64
	DelayCycles    int64
	// CoalesceInterrupt is the probability a delivery is held for
	// CoalesceCycles so it merges with samples completing behind it.
	CoalesceInterrupt float64
	CoalesceCycles    int64
	// StallDrain is the probability the software drain is busy for
	// StallCycles once the interrupt fires (handler preempted, cache-cold
	// — the buffer keeps overflowing meanwhile).
	StallDrain  float64
	StallCycles int64
	// Overwrite is the probability a sample completing into a full buffer
	// overwrites the newest register set instead of being shed — the
	// overwrite hazard of delayed delivery.
	Overwrite float64
	// CorruptSample is the per-sample probability of one random bit flip
	// in one field of a drained record.
	CorruptSample float64
}

// Uniform returns Rates applying one combined rate to every fault kind,
// with delivery-perturbation durations sized to a few buffer-fill times —
// the knob behind pmsim -chaos and the soak sweep.
func Uniform(rate float64) Rates {
	return Rates{
		DropInterrupt:     rate,
		DelayInterrupt:    rate,
		DelayCycles:       400,
		CoalesceInterrupt: rate,
		CoalesceCycles:    200,
		StallDrain:        rate,
		StallCycles:       300,
		Overwrite:         rate,
		CorruptSample:     rate,
	}
}

// validate reports a Rates problem, or nil.
func (r Rates) validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"drop-interrupt", r.DropInterrupt},
		{"delay-interrupt", r.DelayInterrupt},
		{"coalesce-interrupt", r.CoalesceInterrupt},
		{"stall-drain", r.StallDrain},
		{"overwrite", r.Overwrite},
		{"corrupt-sample", r.CorruptSample},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 || pr.p != pr.p {
			return fmt.Errorf("faultinject: %s rate %v outside [0, 1]", pr.name, pr.p)
		}
	}
	if r.DelayCycles < 0 || r.CoalesceCycles < 0 || r.StallCycles < 0 {
		return fmt.Errorf("faultinject: negative fault duration")
	}
	return nil
}

// Counts is the plan's own ledger of what it injected, for reconciling
// against the victim's loss accounting.
type Counts struct {
	InterruptsDropped   uint64
	InterruptsDelayed   uint64
	InterruptsCoalesced uint64
	DrainsStalled       uint64
	HoldCycles          int64 // total delivery postponement injected
	Overwrites          uint64
	SamplesCorrupted    uint64
}

// Plan is a seeded fault-injection plan. It implements core.FaultInjector
// and cpu.FaultInjector; attach the same Plan to both layers so one RNG
// stream drives the whole stack. Not safe for concurrent use — like the
// Unit it perturbs, it is clocked by a single simulated pipeline.
type Plan struct {
	rng    *stats.RNG
	rates  Rates
	counts Counts
}

// NewPlan returns a Plan drawing from seed.
func NewPlan(seed uint64, r Rates) (*Plan, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &Plan{rng: stats.NewRNG(seed), rates: r}, nil
}

// Counts returns what the plan has injected so far.
func (p *Plan) Counts() Counts { return p.counts }

// SuppressInterrupt implements core.FaultInjector: drop this raise.
func (p *Plan) SuppressInterrupt() bool {
	if !p.rng.Bool(p.rates.DropInterrupt) {
		return false
	}
	p.counts.InterruptsDropped++
	return true
}

// OverwriteOnFull implements core.FaultInjector: a completion into a full
// buffer clobbers the newest register set.
func (p *Plan) OverwriteOnFull() bool {
	if !p.rng.Bool(p.rates.Overwrite) {
		return false
	}
	p.counts.Overwrites++
	return true
}

// CorruptDrained implements core.FaultInjector: flip one random bit in one
// field of each unlucky sample.
func (p *Plan) CorruptDrained(ss []core.Sample) int {
	n := 0
	for i := range ss {
		if !p.rng.Bool(p.rates.CorruptSample) {
			continue
		}
		r := &ss[i].First
		if ss[i].Paired && p.rng.Bool(0.5) {
			r = &ss[i].Second
		}
		p.corruptRecord(r)
		n++
	}
	p.counts.SamplesCorrupted += uint64(n)
	return n
}

// corruptRecord flips one bit in one randomly chosen field. Some flips are
// detectable by software validation (undefined event bits, impossible
// timestamps), others are silent noise — both matter for the degradation
// story.
func (p *Plan) corruptRecord(r *core.Record) {
	switch p.rng.Intn(7) {
	case 0:
		r.PC ^= 1 << uint(p.rng.Intn(64))
	case 1:
		r.Addr ^= 1 << uint(p.rng.Intn(64))
	case 2:
		r.Events ^= core.Event(1) << uint(p.rng.Intn(32))
	case 3:
		r.Trap ^= core.TrapReason(1) << uint(p.rng.Intn(8))
	case 4:
		r.History ^= 1 << uint(p.rng.Intn(64))
	case 5:
		r.StageCycle[p.rng.Intn(core.NumStages)] ^= 1 << uint(p.rng.Intn(63))
	default:
		r.LoadComplete ^= 1 << uint(p.rng.Intn(63))
	}
}

// HoldInterrupt implements cpu.FaultInjector: consulted once per raised
// interrupt, it returns how many cycles delivery is withheld — the sum of
// an injected delivery delay, a coalescing window, and a stalled drain.
func (p *Plan) HoldInterrupt() int64 {
	var hold int64
	if p.rng.Bool(p.rates.DelayInterrupt) {
		hold += p.rates.DelayCycles
		p.counts.InterruptsDelayed++
	}
	if p.rng.Bool(p.rates.CoalesceInterrupt) {
		hold += p.rates.CoalesceCycles
		p.counts.InterruptsCoalesced++
	}
	if p.rng.Bool(p.rates.StallDrain) {
		hold += p.rates.StallCycles
		p.counts.DrainsStalled++
	}
	p.counts.HoldCycles += hold
	return hold
}
