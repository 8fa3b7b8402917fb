package cpu

import "fmt"

// This file holds the allocation-free machinery behind the per-cycle hot
// path: a ring-buffer event scheduler (replacing map[int64][]*uop for
// completion and load-value wakeup events), an allocation-free seq sort
// (replacing sort.Slice and its reflect-based swapper), and a recycling
// uop arena (a free list in front of chunked allocation, so a run
// allocates its peak in-flight window once instead of one uop per fetched
// instruction). None of these change simulated behavior — the
// differential golden suite in internal/difftest pins that.

// eventRing schedules uops for future cycles. Every event lands within a
// bounded horizon — functional-unit latencies and worst-case memory round
// trips are small config-derived constants — so an event is an array slot
// indexed by cycle&mask whose backing storage is recycled forever.
type eventRing struct {
	slots [][]*uop
	mask  int64
}

// newEventRing sizes the ring to cover at least span cycles of lookahead
// (rounded up to a power of two, minimum 64).
func newEventRing(span int) *eventRing {
	size := int64(64)
	for size < int64(span)+2 {
		size <<= 1
	}
	return &eventRing{slots: make([][]*uop, size), mask: size - 1}
}

// add schedules u for cycle cyc (now is the current cycle; cyc must be
// >= now, which holds for all pipeline events — latencies are positive —
// and within the ring's span, which holds when the hierarchy was built
// from the pipeline's cfg.Mem).
// The entry pins u (see Pipeline.release) until completeStage has visited
// it.
func (r *eventRing) add(now, cyc int64, u *uop) {
	if cyc-now >= int64(len(r.slots)) {
		panic(beyondRing{now, cyc, len(r.slots)})
	}
	u.pending++
	i := cyc & r.mask
	r.slots[i] = append(r.slots[i], u)
}

// beyondRing is add's panic value: an event past the ring's span.
type beyondRing struct {
	now, cyc int64
	size     int
}

func (e beyondRing) Error() string {
	return fmt.Sprintf("cpu: event for cycle %d scheduled at cycle %d, beyond the %d-cycle ring", e.cyc, e.now, e.size)
}

// take returns the uops scheduled for cyc, in insertion order, and clears
// the slot while keeping its capacity. The returned slice is valid until
// the slot's cycle comes around again (ring-size cycles later) — callers
// consume it within the same simulated cycle.
func (r *eventRing) take(cyc int64) []*uop {
	i := cyc & r.mask
	s := r.slots[i]
	r.slots[i] = s[:0]
	return s
}

// drainAscending visits every still-pending event in ascending cycle
// order, emptying the ring. Pending events all lie at cycles >= from
// because take(c) ran for every cycle before from. Used by finish() to
// flush deferred load-completion signals deterministically.
func (r *eventRing) drainAscending(from int64, visit func(cyc int64, u *uop)) {
	for off := int64(0); off < int64(len(r.slots)); off++ {
		cyc := from + off
		i := cyc & r.mask
		for _, u := range r.slots[i] {
			visit(cyc, u)
		}
		r.slots[i] = r.slots[i][:0]
	}
}

// sortBySeq orders uops by fetch sequence with a plain insertion sort:
// per-cycle completion groups are issue-width-sized, where this beats
// sort.Slice and allocates nothing (sort.Slice's reflect-based swapper was
// 8% of the simulator's allocations).
func sortBySeq(cs []*uop) {
	for i := 1; i < len(cs); i++ {
		u := cs[i]
		j := i - 1
		for j >= 0 && cs[j].seq > u.seq {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = u
	}
}

// uopChunk is the arena granularity: when the free list is empty, uops are
// carved from chunks this large, so the allocator runs once per uopChunk
// of in-flight growth. A run's chunks total its peak in-flight window
// (fetch buffer + ROB + squashed uops still pinned by a ring event) and
// die with the Pipeline.
const uopChunk = 1024

// newUop returns a zeroed uop: a recycled one if any is free, else the
// next arena slot.
func (p *Pipeline) newUop() *uop {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		*u = uop{}
		return u
	}
	if p.arenaN == len(p.arena) {
		p.arena = make([]uop, uopChunk)
		p.arenaN = 0
	}
	u := &p.arena[p.arenaN]
	p.arenaN++
	return u
}

// release recycles u once nothing can reach it. A *uop is held in exactly
// four places — fetchBuf/rob, a ready list, and the two event rings —
// so u is free at the last of two events: it reached a terminal
// state (retireStage pops it retired, killUop squashes it and its holders
// drop it; a ready list holds only mapped uops) and completeStage has
// visited its last ring entry. Each of those handlers updates its own
// piece and then calls release; whichever comes last frees. A retired
// load whose value is still in flight stays pinned by its wakeups entry
// (the §4.1.4 deferred completion). Register waiter lists refer to uops
// weakly (see waiter) and do not pin them.
func (p *Pipeline) release(u *uop) {
	if (u.state == stRetired || u.state == stSquashed) && u.pending == 0 {
		p.free = append(p.free, u)
	}
}
