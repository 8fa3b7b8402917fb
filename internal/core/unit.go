package core

import (
	"fmt"

	"profileme/internal/stats"
)

// CountMode selects what the fetched-instruction counter decrements on
// (§4.1.1 discusses the tradeoff).
type CountMode uint8

const (
	// CountInstructions decrements once per instruction fetched on the
	// predicted control path. Every selection lands on a real
	// predicted-path instruction, but the hardware is more complex.
	CountInstructions CountMode = iota
	// CountFetchOpportunities decrements once per fetch opportunity
	// (FetchWidth per cycle). Simpler hardware, but selections may land
	// on empty slots or instructions outside the predicted path,
	// reducing useful sample yield — the paper leaves the choice open
	// and this implementation supports both for the ablation.
	CountFetchOpportunities
)

// String returns the mode name.
func (m CountMode) String() string {
	switch m {
	case CountInstructions:
		return "instructions"
	case CountFetchOpportunities:
		return "fetch-opportunities"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// IntervalMode selects how sampling intervals are randomized.
type IntervalMode uint8

const (
	// IntervalGeometric draws geometric intervals: every fetch is
	// selected independently with probability 1/mean. Unbiased and
	// alias-free; the default.
	IntervalGeometric IntervalMode = iota
	// IntervalUniform draws uniformly from [1, 2*mean-1]. Also unbiased.
	IntervalUniform
	// IntervalFixed uses the constant interval mean. Biased: it aliases
	// with loop periods. Exists for the randomization ablation.
	IntervalFixed
)

// String returns the mode name.
func (m IntervalMode) String() string {
	switch m {
	case IntervalGeometric:
		return "geometric"
	case IntervalUniform:
		return "uniform"
	case IntervalFixed:
		return "fixed"
	default:
		return fmt.Sprintf("interval(%d)", uint8(m))
	}
}

// Config parameterizes a ProfileMe Unit.
type Config struct {
	// Paired enables paired sampling (two register sets, §4.2): each
	// sample carries a second record selected Window fetches or fewer
	// after the first. Unpaired samples carry one.
	Paired bool
	// MeanInterval is the mean major sampling interval S, in fetched
	// instructions (or fetch opportunities, per CountMode).
	MeanInterval float64
	// Window is W, the width of the minor (intra-pair) interval: the
	// second instruction of a pair is selected uniformly 1..Window
	// fetches after the first. It should cover the maximum number of
	// in-flight instructions (§5.2.1).
	Window int
	// BufferDepth is the number of completed samples buffered before an
	// interrupt is raised (§4.3). 1 means interrupt per sample.
	BufferDepth int
	// CountMode selects instruction vs fetch-opportunity counting.
	CountMode CountMode
	// IntervalMode selects the interval randomization.
	IntervalMode IntervalMode
	// Seed seeds the interval generator (stands in for the software
	// writing pseudo-random values into the fetched-instruction counter).
	Seed uint64
}

// DefaultConfig returns single-instruction sampling with a mean interval
// of 4096 fetched instructions and per-sample interrupts.
func DefaultConfig() Config {
	return Config{
		MeanInterval: 4096,
		Window:       80,
		BufferDepth:  1,
		CountMode:    CountInstructions,
		IntervalMode: IntervalGeometric,
		Seed:         1,
	}
}

// Validate reports a configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.MeanInterval < 1:
		return fmt.Errorf("core: mean interval %v < 1", c.MeanInterval)
	case c.BufferDepth < 1:
		return fmt.Errorf("core: buffer depth %d < 1", c.BufferDepth)
	case c.Window < 0:
		return fmt.Errorf("core: negative window %d", c.Window)
	case c.Paired && c.Window < 1:
		return fmt.Errorf("core: paired sampling needs a positive window")
	}
	return nil
}

// Stats counts what the Unit observed; used to quantify sample yield and
// interrupt amortization. The fault counters (overwritten, corrupted,
// suppressed) stay zero unless a FaultInjector is attached.
type Stats struct {
	Selected        uint64 // fetch opportunities selected for profiling
	EmptySelected   uint64 // selections that held no instruction
	OffPath         uint64 // selections that held a bad-path instruction
	SamplesBuffered uint64 // completed samples pushed to the buffer
	SamplesDropped  uint64 // samples lost because the buffer was full
	Interrupts      uint64 // interrupts raised

	// SamplesOverwritten counts buffered samples clobbered by a later
	// completion while interrupt delivery was delayed — the paper's
	// sample-register overwrite hazard, reachable only via fault injection.
	SamplesOverwritten uint64
	// SamplesCorrupted counts samples bit-flipped by fault injection on
	// their way out of Drain.
	SamplesCorrupted uint64
	// InterruptsSuppressed counts interrupt raises swallowed by fault
	// injection (the line stays low; the buffer keeps overflowing).
	InterruptsSuppressed uint64
}

// Captured returns the total number of samples the hardware completed,
// whether or not software ever saw them.
func (s Stats) Captured() uint64 {
	return s.SamplesBuffered + s.SamplesDropped + s.SamplesOverwritten
}

// Lost returns the samples captured by the hardware but never delivered to
// software (dropped on a full buffer or overwritten during a delayed
// interrupt). Random losses here are what the paper argues profiles must
// tolerate (§4.3, §6); profile.DB.RecordLoss consumes this to keep its
// estimators unbiased.
func (s Stats) Lost() uint64 { return s.SamplesDropped + s.SamplesOverwritten }

// FaultInjector is the hook surface a fault-injection plan presents to the
// Unit (internal/faultinject implements it). Every method must be
// deterministic given the plan's seed: the Unit consults the hooks in a
// fixed order from a single-threaded simulation, so seeded plans reproduce
// exactly. A nil injector means fault-free operation.
type FaultInjector interface {
	// SuppressInterrupt reports whether this interrupt raise is dropped.
	// The line stays low; the full buffer keeps dropping samples until a
	// later capture raises it successfully.
	SuppressInterrupt() bool
	// OverwriteOnFull reports whether a sample completing into a full
	// buffer overwrites the newest buffered entry (the register-overwrite
	// hazard of delayed interrupt delivery) instead of being dropped.
	OverwriteOnFull() bool
	// CorruptDrained may bit-flip fields of the samples software is about
	// to read; it returns how many samples it mutated.
	CorruptDrained(ss []Sample) int
}

// Unit is the per-processor ProfileMe hardware. The pipeline drives it;
// profiling software drains it. Not safe for concurrent use (it is
// clocked by a single simulated pipeline).
type Unit struct {
	cfg  Config
	ways int // records per sample: the paper builds one or two register sets
	rng  *stats.RNG

	counter  int64 // fetched-instruction counter; selection at zero
	minor    int64 // intra-sample counter toward the next selection
	nextSel  int   // index of the next tag to select; == ways when all selected
	fetchSeq uint64

	recs [2]Record
	live [2]bool // tag selected
	done [2]bool // tag complete (retired or aborted)

	buffer    []Sample
	interrupt bool
	stats     Stats
	faults    FaultInjector
}

// NewUnit returns an armed Unit.
func NewUnit(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{cfg: cfg, ways: 1, rng: stats.NewRNG(cfg.Seed)}
	if cfg.Paired {
		u.ways = 2
	}
	u.arm()
	return u, nil
}

// Ways returns the number of records per sample: 2 when paired, else 1.
func (u *Unit) Ways() int { return u.ways }

// MustNewUnit is NewUnit, panicking on error.
func MustNewUnit(cfg Config) *Unit {
	u, err := NewUnit(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Stats returns the Unit's counters.
func (u *Unit) Stats() Stats { return u.stats }

// AttachFaults arms a fault-injection plan (nil detaches). The Unit keeps
// honest per-fault accounting in Stats either way, so software can always
// reconstruct the delivered-vs-lost split.
func (u *Unit) AttachFaults(fi FaultInjector) { u.faults = fi }

// arm draws a fresh major interval and resets per-sample state. In real
// hardware the interrupt handler writes the counter; with buffering the
// hardware re-arms itself (§4.3) — the Unit's internal generator models
// both.
func (u *Unit) arm() {
	u.counter = int64(u.drawMajor())
	u.nextSel = 0
	for i := 0; i < u.ways; i++ {
		u.live[i], u.done[i] = false, false
	}
}

func (u *Unit) drawMajor() int {
	switch u.cfg.IntervalMode {
	case IntervalUniform:
		return u.rng.UniformInterval(int(u.cfg.MeanInterval))
	case IntervalFixed:
		return int(u.cfg.MeanInterval)
	default:
		return u.rng.Geometric(u.cfg.MeanInterval)
	}
}

// Tag values: NoTag means "not profiled".
const NoTag = -1

// OnFetch presents one fetch opportunity to the Unit and returns the
// ProfileMe tag assigned to it, or NoTag. The pipeline must call this for
// every fetch opportunity, in order:
//
//	cycle     — current cycle
//	pc        — PC of the slot (meaningful when hasInst)
//	hasInst   — the slot holds an instruction
//	onPath    — the instruction is on the predicted control path
//	history   — global branch history register at this fetch
//	context   — address space / thread id
//
// In CountInstructions mode only on-path instruction slots decrement the
// counter; in CountFetchOpportunities mode every opportunity does.
func (u *Unit) OnFetch(cycle int64, pc uint64, hasInst, onPath bool, history uint64, historyBits int, context uint64) int {
	counts := hasInst && onPath
	if u.cfg.CountMode == CountFetchOpportunities {
		counts = true
	}
	if counts {
		// fetchSeq counts the same units the selection counter does, so
		// fetch distances between records are in those units: a pair at
		// FetchDistance 1 is two consecutively fetched (predicted-path)
		// instructions regardless of wrong-path fetches or fetch bubbles
		// in between.
		u.fetchSeq++
	}
	if u.nextSel >= u.ways || !counts {
		return NoTag
	}

	if u.nextSel == 0 {
		u.counter--
		if u.counter > 0 {
			return NoTag
		}
	} else {
		u.minor--
		if u.minor > 0 {
			return NoTag
		}
	}
	tag := u.nextSel

	u.stats.Selected++
	r := newRecord()
	r.Context = context
	r.PC = pc
	r.History = history
	r.HistoryBits = historyBits
	r.StageCycle[StageFetch] = cycle
	r.FetchSeq = u.fetchSeq
	switch {
	case !hasInst:
		r.Events |= EvNoInstruction
		u.stats.EmptySelected++
	case !onPath:
		r.Events |= EvOffPath
		u.stats.OffPath++
	}
	u.recs[tag] = r
	u.live[tag] = true
	u.done[tag] = false

	u.nextSel++
	if u.nextSel < u.ways {
		u.minor = int64(u.rng.IntRange(1, u.cfg.Window))
	}

	// An empty slot has nothing to track through the pipeline: complete
	// it immediately as an aborted sample.
	if !hasInst {
		u.Complete(tag, false, TrapNone, cycle)
	}
	return tag
}

// validTag reports whether tag names a live record.
func (u *Unit) validTag(tag int) bool {
	return tag >= 0 && tag < u.ways && u.live[tag]
}

// SetStage records the cycle the tagged instruction reached a stage, for
// a caller that fills the registers stage by stage and then calls
// Complete. The pipeline hands over the whole record with Leave instead.
func (u *Unit) SetStage(tag int, st Stage, cycle int64) {
	if !u.validTag(tag) {
		return
	}
	u.recs[tag].StageCycle[st] = cycle
}

// Complete finishes the tagged instruction's record from what the
// registers hold — the selection and any SetStage writes — retired, or
// aborted with a reason at cycle, and hands it to Leave.
func (u *Unit) Complete(tag int, retired bool, reason TrapReason, cycle int64) {
	if !u.validTag(tag) {
		return
	}
	r := u.recs[tag]
	r.StageCycle[StageRetire] = cycle
	if retired {
		r.Events |= EvRetired
		reason = TrapNone
	}
	r.Trap = reason
	u.Leave(tag, &r)
}

// Leave latches the tagged instruction's whole record as it leaves the
// pipeline, retired or aborted: one write of every Profile Register but
// FetchSeq, which the unit assigned at selection. A tag already finished
// is ignored. When every instruction selected for the current sample has
// left, the sample moves to the buffer and, if the buffer has reached
// BufferDepth, the interrupt line is raised.
func (u *Unit) Leave(tag int, r *Record) {
	if !u.validTag(tag) || u.done[tag] {
		return
	}
	seq := u.recs[tag].FetchSeq
	u.recs[tag] = *r
	u.recs[tag].FetchSeq = seq
	u.done[tag] = true

	if u.sampleFinished() {
		u.capture()
	}
}

// sampleFinished reports whether every instruction selected for the
// current sample has completed. While a later selection is still pending
// the sample is not finished: the interrupt must wait for all records
// (§4.2).
func (u *Unit) sampleFinished() bool {
	if u.nextSel < u.ways {
		return false
	}
	any := false
	for tag := 0; tag < u.ways; tag++ {
		if u.live[tag] {
			any = true
			if !u.done[tag] {
				return false
			}
		}
	}
	return any
}

// capture moves the finished sample into the buffer and re-arms.
func (u *Unit) capture() {
	s := Sample{First: u.recs[0]}
	if u.ways > 1 && u.live[1] {
		s.Paired = true
		s.Second = u.recs[1]
		s.FetchDistance = u.recs[1].FetchSeq - u.recs[0].FetchSeq
		s.FetchLatency = u.recs[1].StageCycle[StageFetch] - u.recs[0].StageCycle[StageFetch]
	}
	if len(u.buffer) >= u.cfg.BufferDepth {
		// Buffer full and software has not drained: hardware drops the
		// sample (real designs stall sampling; dropping is equivalent
		// for statistics and simpler). Under an injected delayed
		// interrupt, the new completion instead overwrites the newest
		// register set — the paper's overwrite hazard.
		if u.faults != nil && u.faults.OverwriteOnFull() {
			u.buffer[len(u.buffer)-1] = s
			u.stats.SamplesOverwritten++
		} else {
			u.stats.SamplesDropped++
		}
	} else {
		u.buffer = append(u.buffer, s)
		u.stats.SamplesBuffered++
	}
	if len(u.buffer) >= u.cfg.BufferDepth && !u.interrupt {
		if u.faults != nil && u.faults.SuppressInterrupt() {
			u.stats.InterruptsSuppressed++
		} else {
			u.interrupt = true
			u.stats.Interrupts++
		}
	}
	u.arm()
}

// FlushInFlight aborts any selected-but-unfinished instructions (end of
// run or pipeline drain) so their partial records are still delivered.
func (u *Unit) FlushInFlight(cycle int64) {
	changed := false
	for tag := 0; tag < u.ways; tag++ {
		if u.live[tag] && !u.done[tag] {
			u.recs[tag].StageCycle[StageRetire] = cycle
			u.recs[tag].Trap = TrapNeverDone
			u.done[tag] = true
			changed = true
		}
	}
	if u.nextSel > 0 && u.nextSel < u.ways {
		// Later selections never happened; deliver what was captured.
		u.nextSel = u.ways
		changed = true
	}
	if changed && u.sampleFinished() {
		u.capture()
	}
}

// InterruptPending reports whether the interrupt line is raised.
func (u *Unit) InterruptPending() bool { return u.interrupt }

// Drain returns the buffered samples and lowers the interrupt line: the
// profiling software's read of the Profile Registers. An attached fault
// plan may bit-flip fields on the way out (a register read racing the
// hardware); software must validate what it consumes.
func (u *Unit) Drain() []Sample {
	out := u.buffer
	u.buffer = nil
	u.interrupt = false
	if u.faults != nil && len(out) > 0 {
		u.stats.SamplesCorrupted += uint64(u.faults.CorruptDrained(out))
	}
	return out
}

// Recycle hands a slice previously returned by Drain back to the unit so
// its backing storage carries the next buffer fill, making the steady
// drain/refill cycle allocation-free. Only call it once the samples have
// been fully consumed: after Recycle the slice's contents will be
// overwritten by future captures. Callers that retain samples must copy
// the Sample values out first.
func (u *Unit) Recycle(buf []Sample) {
	if u.buffer == nil && cap(buf) > 0 {
		u.buffer = buf[:0]
	}
}

// Pending returns how many samples are buffered (for tests and yield
// accounting) without draining them.
func (u *Unit) Pending() int { return len(u.buffer) }
