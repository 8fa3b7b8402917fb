// Package cpu is the out-of-order superscalar timing pipeline the
// ProfileMe hardware plugs into — the reproduction's stand-in for the
// paper's cycle-accurate Alpha 21264 simulator. It replays the
// correct-path dynamic instruction stream from internal/sim through a
// 21264-flavoured pipeline (fetch with branch prediction and real
// wrong-path fetch, rename with physical register files, issue queues and
// functional-unit pools, a memory pipeline with replay traps, in-order
// retirement) and drives the ProfileMe unit (internal/core) and baseline
// event counters (internal/counters) with everything they would observe
// in hardware.
package cpu

import (
	"fmt"

	"profileme/internal/bpred"
	"profileme/internal/isa"
	"profileme/internal/mem"
)

// latencies gives execution latencies per operation class, in cycles from
// issue to completion (loads take their latency from the memory
// hierarchy instead).
type latencies struct {
	IntALU int
	IntMul int
	FAdd   int // pipelined FP add/mul
	FDiv   int // unpipelined divide
	Branch int // resolution latency for control instructions
	Store  int
}

// defaultLatencies returns 21264-flavoured execution latencies.
func defaultLatencies() latencies {
	return latencies{IntALU: 1, IntMul: 7, FAdd: 4, FDiv: 12, Branch: 1, Store: 1}
}

// Config parameterizes the pipeline. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Widths.
	FetchWidth  int // fetch opportunities per cycle
	MapWidth    int // rename/dispatch per cycle
	RetireWidth int // in-order retires per cycle

	// Sustained issue width C used by the wasted-issue-slot metric
	// (paper §5.2.3: "four per cycle sustainable on the Alpha 21264").
	SustainedIssueWidth int

	// Buffers.
	ROBSize  int // maximum in-flight instructions
	IQInt    int // integer issue-queue entries
	IQFP     int // floating-point issue-queue entries
	FetchBuf int // fetch-to-map decoupling buffer
	PhysRegs int // physical integer registers (> isa.NumRegs)

	// Functional units.
	IntUnits int // integer ALUs (also execute control ops)
	MemPorts int // load/store ports
	FPUnits  int // FP pipes (one shared unpipelined divider)

	// Control flow.
	MispredictPenalty int  // redirect bubble after a resolved mispredict
	TakenBranchBubble int  // fetch bubble after a predicted-taken branch
	InOrder           bool // restrict issue to program order (21164-like)

	// Memory system.
	ReplayTraps bool // 21264-style load-store order replay traps

	// NoWrongPath disables wrong-path fetch for the ablation study: after
	// a misprediction the fetcher idles (presenting empty fetch
	// opportunities) instead of following the predicted path, so no
	// bad-path instructions exist to sample. Timing of recovery is
	// unchanged.
	NoWrongPath bool

	// Profiling interrupt cost: cycles fetch is frozen while software
	// reads the profile registers (per delivered interrupt).
	InterruptCost int

	// WatchdogCycles bounds how long the pipeline may go with no
	// retirement, whatever the ROB holds, before Run gives up with
	// ErrLivelock instead of looping forever (0 disables the watchdog). It
	// must exceed the longest legitimate stall — worst-case memory latency
	// plus interrupt delivery — by a wide margin; DefaultWatchdogCycles is
	// far above both.
	WatchdogCycles int

	// UninterruptibleStart/End mark a PC range of high-priority code
	// (like Alpha PALcode, §2.2): no interrupt — counter overflow or
	// ProfileMe — is recognized while the restart PC lies inside
	// [Start, End). Deferred counter interrupts are then attributed to
	// whatever instruction follows the region, creating the "blind
	// spots" the paper describes; ProfileMe samples keep their correct
	// PCs because attribution happened at selection, not delivery.
	UninterruptibleStart uint64
	UninterruptibleEnd   uint64

	// Identification recorded in the ProfileMe context register.
	Context uint64

	// PhysBase offsets every memory-hierarchy probe (fetch and data):
	// with a shared hierarchy, each process gets disjoint physical
	// addresses, as distinct page mappings would provide. Profile records
	// still carry virtual addresses.
	PhysBase uint64

	// Ground-truth instrumentation (the simulator is omniscient; these
	// feed estimator validation, not the modelled hardware).
	TrackPerPC       bool
	TrackWastedSlots bool

	Lat   latencies
	Mem   mem.Config
	Bpred bpred.Config
}

// DefaultConfig returns the 21264-flavoured configuration used by the
// experiments (DESIGN.md §6).
func DefaultConfig() Config {
	return Config{
		FetchWidth:          4,
		MapWidth:            4,
		RetireWidth:         4,
		SustainedIssueWidth: 4,
		ROBSize:             80,
		IQInt:               20,
		IQFP:                15,
		FetchBuf:            16,
		PhysRegs:            80,
		IntUnits:            4,
		MemPorts:            2,
		FPUnits:             2,
		MispredictPenalty:   7,
		TakenBranchBubble:   1,
		ReplayTraps:         true,
		InterruptCost:       30,
		WatchdogCycles:      DefaultWatchdogCycles,
		TrackPerPC:          true,
		Lat:                 defaultLatencies(),
		Mem:                 mem.DefaultConfig(),
		Bpred:               bpred.DefaultConfig(),
	}
}

// InOrderConfig returns an in-order configuration (21164-like) used by the
// Figure 2 baseline comparison: same widths and memory system, but issue
// is restricted to program order.
func InOrderConfig() Config {
	cfg := DefaultConfig()
	cfg.InOrder = true
	cfg.ReplayTraps = false // in-order issue cannot reorder loads past stores
	return cfg
}

// DefaultWatchdogCycles is the default retire-progress bound: orders of
// magnitude above any legitimate stall (hundreds of cycles of memory
// latency, tens of cycles of interrupt delivery).
const DefaultWatchdogCycles = 1_000_000

// Validate reports a configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.MapWidth < 1 || c.RetireWidth < 1:
		return fmt.Errorf("cpu: non-positive pipeline width")
	case c.ROBSize < 2:
		return fmt.Errorf("cpu: ROB size %d too small", c.ROBSize)
	case c.IQInt < 1 || c.IQFP < 1:
		return fmt.Errorf("cpu: non-positive issue queue size")
	case c.FetchBuf < c.FetchWidth:
		return fmt.Errorf("cpu: fetch buffer %d smaller than fetch width %d", c.FetchBuf, c.FetchWidth)
	case c.PhysRegs < isa.NumRegs+c.MapWidth:
		return fmt.Errorf("cpu: %d physical registers cannot rename %d architectural", c.PhysRegs, isa.NumRegs)
	case c.IntUnits < 1 || c.MemPorts < 1 || c.FPUnits < 1:
		return fmt.Errorf("cpu: non-positive functional unit count")
	case c.SustainedIssueWidth < 1:
		return fmt.Errorf("cpu: non-positive sustained issue width")
	case c.Lat.IntALU < 1 || c.Lat.IntMul < 1 || c.Lat.FAdd < 1 || c.Lat.FDiv < 1 || c.Lat.Branch < 1 || c.Lat.Store < 1:
		return fmt.Errorf("cpu: all latencies must be at least 1 cycle")
	case c.MispredictPenalty < 0 || c.TakenBranchBubble < 0:
		return fmt.Errorf("cpu: negative front-end penalty")
	case c.InterruptCost < 0:
		return fmt.Errorf("cpu: negative interrupt cost")
	case c.WatchdogCycles < 0:
		return fmt.Errorf("cpu: negative watchdog bound")
	}
	return c.Bpred.Validate()
}
