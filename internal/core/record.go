// Package core implements the ProfileMe hardware proposed by the paper
// (§4): the fetched-instruction counter that randomly selects instructions
// to profile, the ProfileMe tag that follows a selected instruction through
// the pipeline, the Profile Registers that capture the instruction's PC,
// effective address, event bits, global branch history and per-stage
// latencies, paired sampling of two potentially concurrent instructions,
// and the sample buffer that amortizes interrupt delivery (§4.3).
//
// The pipeline in internal/cpu drives a Unit through a narrow hardware-ish
// interface: fetch opportunities in, and one record at leave per tag, the
// instruction's whole Record handed over once when it retires or aborts.
// Profiling software in internal/profile drains Samples from the buffer
// when the Unit raises its interrupt.
package core

import "fmt"

// Event is the Profiled Event Register: one bit per event the instruction
// experienced (§4.1.3).
type Event uint32

// Event bits.
const (
	// EvRetired is set when the instruction retired; clear means it
	// aborted (bad path, trap, or pipeline flush). Keeping aborted
	// instructions visible — with this bit to discriminate — is one of
	// ProfileMe's key differences from prior hardware (§8).
	EvRetired Event = 1 << iota
	// EvICacheMiss: the fetch that delivered this instruction missed in
	// the I-cache.
	EvICacheMiss
	// EvITBMiss: instruction TLB miss at fetch.
	EvITBMiss
	// EvDCacheMiss: load or store missed in the D-cache.
	EvDCacheMiss
	// EvDTBMiss: data TLB miss.
	EvDTBMiss
	// EvL2Miss: the access also missed in the unified L2.
	EvL2Miss
	// EvTaken: conditional branch resolved taken.
	EvTaken
	// EvMispredict: this control-flow instruction was mispredicted
	// (direction or target).
	EvMispredict
	// EvOffPath: the instruction was fetched down a mispredicted path
	// (it can never retire). The paper calls these bad-path instructions.
	EvOffPath
	// EvNoInstruction: the sampled fetch opportunity held no instruction
	// at all (fetcher stalled); only possible when selection counts fetch
	// opportunities (§4.1.1).
	EvNoInstruction
	// EvReplayTrap: the instruction suffered a memory-order replay trap
	// and was re-executed (21264-style load-store order trap).
	EvReplayTrap
	// EvResourceStall: the instruction stalled at map for lack of
	// physical registers or issue-queue slots ("resource conflicts").
	EvResourceStall
)

var eventNames = []struct {
	bit  Event
	name string
}{
	{EvRetired, "retired"}, {EvICacheMiss, "icache-miss"}, {EvITBMiss, "itb-miss"},
	{EvDCacheMiss, "dcache-miss"}, {EvDTBMiss, "dtb-miss"}, {EvL2Miss, "l2-miss"},
	{EvTaken, "taken"}, {EvMispredict, "mispredict"}, {EvOffPath, "off-path"},
	{EvNoInstruction, "no-inst"}, {EvReplayTrap, "replay-trap"},
	{EvResourceStall, "resource-stall"},
}

// KnownEvents is the mask of every defined event bit; anything outside it
// in a Record is corruption (profiling software uses this to reject
// damaged samples).
const KnownEvents = (EvResourceStall << 1) - 1

// Has reports whether all bits in mask are set.
func (e Event) Has(mask Event) bool { return e&mask == mask }

// String lists the set event names.
func (e Event) String() string {
	if e == 0 {
		return "none"
	}
	s := ""
	for _, en := range eventNames {
		if e&en.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += en.name
		}
	}
	return s
}

// TrapReason explains why an instruction aborted (the "trap reason" field
// of the event register).
type TrapReason uint8

// Trap reasons.
const (
	TrapNone      TrapReason = iota // retired normally
	TrapBadPath                     // squashed: fetched down a mispredicted path
	TrapReplay                      // squashed by a memory-order replay trap
	trapDrain                       // squashed by a pipeline drain (end of run, interrupt)
	TrapNeverDone                   // sample flushed before the instruction finished
)

var trapNames = [...]string{
	TrapNone: "none", TrapBadPath: "bad-path", TrapReplay: "replay",
	trapDrain: "drain", TrapNeverDone: "never-done",
}

// Known reports whether t is a defined trap reason; unknown values in a
// Record are corruption.
func (t TrapReason) Known() bool { return int(t) < len(trapNames) }

// String returns the trap reason name.
func (t TrapReason) String() string {
	if int(t) < len(trapNames) {
		return trapNames[t]
	}
	return fmt.Sprintf("trap(%d)", uint8(t))
}

// Stage indexes the pipeline timestamps a ProfileMe record captures. The
// differences between consecutive stages are the Table 1 latencies.
type Stage int

// Pipeline stages, in program order through the pipe.
const (
	// StageFetch: cycle the instruction was fetched.
	StageFetch Stage = iota
	// StageMap: cycle it was renamed and entered the issue queue.
	StageMap
	// StageDataReady: cycle its last source operand became available.
	StageDataReady
	// StageIssue: cycle it issued to a functional unit.
	StageIssue
	// StageRetireReady: cycle it finished executing (complete / ready to
	// retire).
	StageRetireReady
	// StageRetire: cycle it retired or was aborted.
	StageRetire
	// NumStages is the number of captured stage timestamps.
	NumStages = iota
)

var stageNames = [...]string{"fetch", "map", "data-ready", "issue", "retire-ready", "retire"}

// String returns the stage name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Record is the contents of one Profile Register set: everything the
// hardware captured about one profiled instruction (§4.1.3).
type Record struct {
	// Context is the Profiled Context Register (address-space number or
	// thread identifier).
	Context uint64
	// PC is the Profiled PC Register.
	PC uint64
	// Addr is the Profiled Address Register: the effective address of a
	// load or store, or the target of an indirect jump. Valid only when
	// AddrValid is set.
	Addr      uint64
	AddrValid bool
	// Events is the Profiled Event Register.
	Events Event
	// Trap is the trap-reason field.
	Trap TrapReason
	// History is the Profiled Path Register: the global branch history
	// register captured at fetch. HistoryBits gives its width.
	History     uint64
	HistoryBits int
	// StageCycle records the absolute cycle the instruction reached each
	// stage; entries the instruction never reached are -1.
	StageCycle [NumStages]int64
	// LoadComplete is the cycle a load's value actually arrived
	// (the Alpha lets loads retire before the value returns, so this can
	// exceed StageCycle[StageRetireReady]); -1 when not applicable.
	LoadComplete int64
	// FetchSeq is the count of fetch opportunities (or fetched
	// instructions, per the selection mode) at the time of fetch; the
	// difference between two records' FetchSeq values is their fetch
	// distance in the sampled stream.
	FetchSeq uint64
}

// newRecord returns a Record with all timestamps unset.
func newRecord() Record {
	r := Record{LoadComplete: -1}
	for i := range r.StageCycle {
		r.StageCycle[i] = -1
	}
	return r
}

// Retired reports whether the instruction retired.
func (r *Record) Retired() bool { return r.Events.Has(EvRetired) }

// Latency returns the cycles between two captured stages, and false when
// either timestamp is missing (e.g. an aborted instruction never issued).
func (r *Record) Latency(from, to Stage) (int64, bool) {
	a, b := r.StageCycle[from], r.StageCycle[to]
	if a < 0 || b < 0 {
		return 0, false
	}
	return b - a, true
}

// MemLatency returns a load's issue-to-completion latency (the paper's
// "Load issue → Completion" row of Table 1), and false when not a load or
// the load never issued.
func (r *Record) MemLatency() (int64, bool) {
	if r.LoadComplete < 0 || r.StageCycle[StageIssue] < 0 {
		return 0, false
	}
	return r.LoadComplete - r.StageCycle[StageIssue], true
}

// InProgress returns the [fetch, retire-ready) interval used by the
// wasted-issue-slots metric (§5.2.3): the time the instruction was "in
// progress", excluding the wait to retire. ok is false when the
// instruction never became ready to retire.
func (r *Record) InProgress() (from, to int64, ok bool) {
	f, rr := r.StageCycle[StageFetch], r.StageCycle[StageRetireReady]
	if f < 0 || rr < 0 {
		return 0, 0, false
	}
	return f, rr, true
}

// Sample is what one interrupt delivers for one sampling window: one
// profiled instruction, or — with paired sampling — two, plus the fetch
// distance and latency between them (§4.2).
type Sample struct {
	// First is always present.
	First Record
	// Second is present (Paired true) in paired mode.
	Second Record
	Paired bool
	// FetchDistance is the number of fetch opportunities (or fetched
	// instructions) between the pair's fetches — the randomized minor
	// interval, as actually realized.
	FetchDistance uint64
	// FetchLatency is the number of cycles between the pair's fetches
	// (the "intra-pair fetch latency" the analysis uses to line up the
	// two records' timestamps).
	FetchLatency int64
}
