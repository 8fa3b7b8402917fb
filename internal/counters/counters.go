// Package counters models the conventional performance-counter hardware
// ProfileMe argues against (§2.2): free-running event counters that raise
// an interrupt when they overflow. The PC delivered to the interrupt
// handler is whatever instruction the processor happens to be at when the
// interrupt is finally recognized — several cycles after the event — so
// events are attributed to the wrong instructions: a fixed skew on an
// in-order machine, a wide smear on an out-of-order one (Figure 2).
package counters

import (
	"fmt"

	"profileme/internal/stats"
)

// EventType enumerates countable hardware events.
type EventType uint8

// Countable events.
const (
	EventDCacheRef EventType = iota
	EventDCacheMiss
	EventICacheMiss
	EventBranchMispredict
	EventRetired
	numEventTypes = iota
)

var eventTypeNames = [...]string{
	"dcache-ref", "dcache-miss", "icache-miss", "branch-mispredict", "retired",
}

// String returns the event name.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Config parameterizes the counter unit.
type Config struct {
	// Monitor is the event whose overflow raises interrupts.
	Monitor EventType
	// Period is the overflow period: one interrupt per Period monitored
	// events. 0 disables overflow interrupts (aggregate counting only).
	Period uint64
	// Skid is the number of cycles between counter overflow and the
	// interrupt being recognized (interrupt-delivery latency through the
	// pipeline). During the skid the machine keeps executing, which is
	// precisely what displaces the attributed PC.
	Skid int64
	// SkidJitter adds a uniform 0..SkidJitter cycles to each skid.
	// In-order machines of the era (21164) recognize counter interrupts
	// pipeline-synchronously — a fixed skid — while out-of-order parts
	// (Pentium Pro) deliver them through an asynchronous interrupt
	// interface whose recognition cycle varies by several cycles; at 3-4
	// retired instructions per cycle that variation is what smears the
	// attributed PC over ~25 instructions in the paper's Figure 2.
	SkidJitter int64
	// Seed seeds the jitter generator.
	Seed uint64
}

// Unit is a set of aggregate event counters plus overflow-interrupt logic
// for one monitored event.
type Unit struct {
	cfg      Config
	counts   [numEventTypes]uint64
	since    uint64
	pendAt   int64 // cycle at which a pending interrupt is recognized; -1 none
	handler  func(pc uint64)
	delivers uint64
	rng      *stats.RNG
}

// New returns a Unit delivering interrupt PCs to handler (which may be nil
// for aggregate-only use).
func New(cfg Config, handler func(pc uint64)) *Unit {
	return &Unit{cfg: cfg, pendAt: -1, handler: handler, rng: stats.NewRNG(cfg.Seed | 1)}
}

// Event counts one occurrence of t at the given cycle, arming an overflow
// interrupt when the monitored counter reaches its period.
func (u *Unit) Event(t EventType, cycle int64) {
	u.counts[t]++
	if u.cfg.Period == 0 || t != u.cfg.Monitor {
		return
	}
	u.since++
	if u.since >= u.cfg.Period && u.pendAt < 0 {
		u.since = 0
		u.pendAt = cycle + u.cfg.Skid
		if u.cfg.SkidJitter > 0 {
			u.pendAt += int64(u.rng.Intn(int(u.cfg.SkidJitter) + 1))
		}
	}
}

// Tick must be called once per cycle with the PC the interrupt handler
// would observe if an interrupt were recognized now (on a real machine:
// the restart PC — the oldest unretired instruction). It returns true when
// an interrupt was delivered this cycle.
func (u *Unit) Tick(cycle int64, pc uint64) bool {
	if u.pendAt < 0 || cycle < u.pendAt {
		return false
	}
	u.pendAt = -1
	u.delivers++
	if u.handler != nil {
		u.handler(pc)
	}
	return true
}

// Count returns the aggregate count for t.
func (u *Unit) Count(t EventType) uint64 { return u.counts[t] }

// Delivered returns the number of overflow interrupts delivered.
func (u *Unit) Delivered() uint64 { return u.delivers }
