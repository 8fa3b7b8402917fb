package cpu

import (
	"profileme/internal/isa"
)

// Result summarizes a pipeline run.
type Result struct {
	Cycles          int64
	Retired         uint64
	FetchedOnPath   uint64 // correct-path instructions fetched
	FetchedOffPath  uint64 // bad-path instructions fetched (later squashed)
	EmptyFetchSlots uint64 // fetch opportunities with no instruction
	Mispredicts     uint64 // resolved control mispredicts
	ReplayTraps     uint64
	Interrupts      uint64 // profiling interrupts delivered
	InterruptStall  int64  // cycles fetch was frozen for interrupt delivery
	IssuedUseful    uint64 // issued instructions that eventually retired
	IssuedWasted    uint64 // issued instructions that were squashed

	// Fault-injection visibility (zero without an attached FaultInjector).
	InterruptsHeld      uint64 // deliveries postponed by injected faults
	InterruptHoldCycles int64  // total postponement across held deliveries
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// CPI returns cycles per retired instruction.
func (r Result) CPI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Retired)
}

// PCStats is the simulator's omniscient per-static-instruction ground
// truth, used to validate the sampled estimates (the estimators must
// converge to these numbers).
type PCStats struct {
	PC         uint64
	Fetched    uint64 // correct-path fetches
	Retired    uint64
	DCacheMiss uint64
	Taken      uint64
	// LatInProgress sums the fetch -> retire-ready latency over retired
	// executions (the X axis of Figure 7).
	LatInProgress int64
	// LatFetchRetire sums the full fetch -> retire latency.
	LatFetchRetire int64
	// WastedSlots sums, over retired executions, the issue slots that
	// went to waste while the instruction was in progress (the Y axis of
	// Figure 7). Only filled when Config.TrackWastedSlots is set.
	WastedSlots int64
	// UsefulSlots sums the issue slots used by other eventually-retiring
	// instructions during the same windows.
	UsefulSlots int64
}

// perPC tracks ground truth per static instruction, indexed by PC/4.
type perPC struct {
	stats []PCStats
}

func newPerPC(numInsts int) *perPC {
	s := make([]PCStats, numInsts)
	for i := range s {
		s[i].PC = uint64(i) * isa.InstBytes
	}
	return &perPC{stats: s}
}

func (p *perPC) at(pc uint64) *PCStats {
	idx := pc / isa.InstBytes
	if idx >= uint64(len(p.stats)) {
		return nil
	}
	return &p.stats[idx]
}

// wastedTracker computes, for every retired instruction, the true number
// of wasted issue slots during its in-progress window [fetch,
// retire-ready): C slots per cycle minus issue slots used by instructions
// that eventually retired. Windows are finalized lazily, once every issue
// in the window is known to have resolved (retired or squashed), which is
// guaranteed after the window has fallen maxLag cycles behind.
type wastedTracker struct {
	c      int // sustained issue width
	ring   []int32
	mask   int64
	maxLag int64
	// earliest cycle still represented in the ring; slots before it have
	// been overwritten.
	oldest  int64
	pending []wastedWindow
	head    int // index of the first unfinalized pending window
	sink    func(pc uint64, from, to int64, useful int64)
}

type wastedWindow struct {
	pc       uint64
	from, to int64
}

// newWastedTracker sizes the ring to cover windows up to maxWindow cycles
// long plus the in-flight lag.
func newWastedTracker(c int, sink func(pc uint64, from, to int64, useful int64)) *wastedTracker {
	const ringBits = 17 // 128K cycles
	t := &wastedTracker{
		c:      c,
		ring:   make([]int32, 1<<ringBits),
		mask:   (1 << ringBits) - 1,
		maxLag: 1 << (ringBits - 1),
		sink:   sink,
	}
	return t
}

// usefulIssue records that an instruction which issued at cycle ultimately
// retired.
func (t *wastedTracker) usefulIssue(cycle int64) {
	t.ring[cycle&t.mask]++
}

// window registers a retired instruction's in-progress window for deferred
// accounting.
func (t *wastedTracker) window(pc uint64, from, to int64) {
	if to-from > t.maxLag {
		from = to - t.maxLag // clamp absurdly long windows to the ring
	}
	t.pending = append(t.pending, wastedWindow{pc: pc, from: from, to: to})
}

// advance finalizes windows that ended more than maxLag cycles ago (all
// issues within them are resolved by now) and reclaims ring slots.
//
// Windows are registered at retire in near-nondecreasing order of their
// end cycle (an instruction's retire-ready precedes its retirement), so
// pending acts as a FIFO: only the head needs checking, making advance
// O(1) amortized. An out-of-order entry behind a later-ending head is
// finalized a few cycles late, which is harmless — finalization only
// requires that all issues in the window have resolved.
func (t *wastedTracker) advance(now int64) {
	cut := now - t.maxLag
	for t.head < len(t.pending) && t.pending[t.head].to < cut {
		t.finalize(t.pending[t.head])
		t.pending[t.head] = wastedWindow{}
		t.head++
	}
	if t.head > 0 && t.head == len(t.pending) {
		t.pending = t.pending[:0]
		t.head = 0
	} else if t.head > 4096 {
		n := copy(t.pending, t.pending[t.head:])
		t.pending = t.pending[:n]
		t.head = 0
	}
	// Reclaim ring slots exactly one lap behind the current cycle: the
	// slot for cycle (now - ringSize) aliases the slot about to be used
	// for cycle now. Live windows reach back at most 2*maxLag = ringSize
	// cycles, so at most the single oldest cycle of a maximal window can
	// be lost to reclamation (finalize clamps to t.oldest).
	for t.oldest <= now-int64(len(t.ring)) {
		t.ring[t.oldest&t.mask] = 0
		t.oldest++
	}
}

// flush finalizes everything (end of run; all issues resolved).
func (t *wastedTracker) flush() {
	for _, w := range t.pending[t.head:] {
		t.finalize(w)
	}
	t.pending = nil
	t.head = 0
}

func (t *wastedTracker) finalize(w wastedWindow) {
	var useful int64
	from := w.from
	if from < t.oldest {
		from = t.oldest
	}
	for c := from; c < w.to; c++ {
		useful += int64(t.ring[c&t.mask])
	}
	t.sink(w.pc, w.from, w.to, useful)
}
