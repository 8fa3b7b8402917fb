package profile

import (
	"fmt"
	"strings"

	"profileme/internal/core"
)

// PipelinePhase is a coarse residency interval between captured stage
// timestamps, for the pipeline-state reconstruction.
type PipelinePhase int

// Phases, in pipeline order. An instruction is "in" a phase between the
// two stage timestamps bounding it.
const (
	PhaseFrontEnd   PipelinePhase = iota // fetch -> map
	PhaseQueue                           // map -> issue (rename + operand wait)
	PhaseExecute                         // issue -> retire-ready
	PhaseWaitRetire                      // retire-ready -> retire
	numPhases       = iota
)

var phaseNames = [...]string{"front-end", "queue", "execute", "wait-retire"}

// String returns the phase name.
func (p PipelinePhase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// phaseBounds maps a phase to its bounding stages.
var phaseBounds = [numPhases][2]core.Stage{
	{core.StageFetch, core.StageMap},
	{core.StageMap, core.StageIssue},
	{core.StageIssue, core.StageRetireReady},
	{core.StageRetireReady, core.StageRetire},
}

// PipelineProfile statistically reconstructs the processor state around a
// target instruction from paired samples — the §5.2 possibility the paper
// floats ("it may be possible to statistically reconstruct detailed
// processor pipeline states from paired samples"). For each cycle offset
// δ from the target's fetch, it estimates how many potentially-concurrent
// instructions sat in each pipeline phase at that moment: each pair
// contributes one uniformly-drawn instruction from the ±W window, so
// counts scale by W / pairs.
type PipelineProfile struct {
	// TargetPC selects which instruction's neighborhood is profiled.
	TargetPC uint64
	// W is the pairing window (the scale factor).
	W int
	// MinDelta/MaxDelta bound the reconstructed cycle offsets (relative
	// to the target's fetch).
	MinDelta, MaxDelta int64

	counts [][numPhases]uint64 // per delta bucket
	pairs  uint64              // pair-views of the target
}

// NewPipelineProfile returns an empty reconstruction for the given window.
func NewPipelineProfile(targetPC uint64, w int, minDelta, maxDelta int64) *PipelineProfile {
	if maxDelta < minDelta {
		minDelta, maxDelta = maxDelta, minDelta
	}
	return &PipelineProfile{
		TargetPC: targetPC, W: w, MinDelta: minDelta, MaxDelta: maxDelta,
		counts: make([][numPhases]uint64, maxDelta-minDelta+1),
	}
}

// add folds one sample: if either record is the target, the partner's
// phase residency is accumulated relative to the target's fetch cycle.
func (pp *PipelineProfile) add(s core.Sample) {
	if !s.Paired {
		return
	}
	if s.First.PC == pp.TargetPC {
		pp.addView(&s.First, &s.Second)
	}
	if s.Second.PC == pp.TargetPC {
		pp.addView(&s.Second, &s.First)
	}
}

// Handler adapts the profile to a Pipeline.AttachProfileMe handler.
func (pp *PipelineProfile) Handler() func([]core.Sample) {
	return func(ss []core.Sample) {
		for _, s := range ss {
			pp.add(s)
		}
	}
}

func (pp *PipelineProfile) addView(target, partner *core.Record) {
	base := target.StageCycle[core.StageFetch]
	if base < 0 {
		return
	}
	pp.pairs++
	for ph := 0; ph < numPhases; ph++ {
		from := partner.StageCycle[phaseBounds[ph][0]]
		to := partner.StageCycle[phaseBounds[ph][1]]
		if from < 0 || to < 0 {
			continue
		}
		lo, hi := from-base, to-base // partner in phase during [lo, hi)
		if lo < pp.MinDelta {
			lo = pp.MinDelta
		}
		if hi > pp.MaxDelta+1 {
			hi = pp.MaxDelta + 1
		}
		for d := lo; d < hi; d++ {
			pp.counts[d-pp.MinDelta][ph]++
		}
	}
}

// Pairs returns how many pair-views of the target were accumulated.
func (pp *PipelineProfile) Pairs() uint64 { return pp.pairs }

// Occupancy estimates the expected number of potentially-concurrent
// instructions in the given phase at cycle offset delta from the target's
// fetch. ok is false when delta is out of range or no pairs were seen.
func (pp *PipelineProfile) Occupancy(delta int64, ph PipelinePhase) (float64, bool) {
	if pp.pairs == 0 || delta < pp.MinDelta || delta > pp.MaxDelta || ph < 0 || int(ph) >= numPhases {
		return 0, false
	}
	k := pp.counts[delta-pp.MinDelta][ph]
	return float64(k) * float64(pp.W) / float64(pp.pairs), true
}

// Render prints occupancy rows sampled every step cycles.
func (pp *PipelineProfile) Render(step int64) string {
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline state around pc %#x (%d pair views, scale W=%d)\n",
		pp.TargetPC, pp.pairs, pp.W)
	fmt.Fprintf(&b, "%8s", "delta")
	for ph := PipelinePhase(0); ph < numPhases; ph++ {
		fmt.Fprintf(&b, " %12s", ph)
	}
	fmt.Fprintf(&b, " %12s\n", "total")
	for d := pp.MinDelta; d <= pp.MaxDelta; d += step {
		fmt.Fprintf(&b, "%8d", d)
		var total float64
		for ph := PipelinePhase(0); ph < numPhases; ph++ {
			v, _ := pp.Occupancy(d, ph)
			total += v
			fmt.Fprintf(&b, " %12.1f", v)
		}
		fmt.Fprintf(&b, " %12.1f\n", total)
	}
	return b.String()
}
