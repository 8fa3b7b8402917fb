// Package bpred models the front-end prediction hardware: a gshare-style
// conditional branch predictor driven by a global branch history register,
// a branch target buffer for indirect jumps, and a return address stack.
//
// The global history register matters beyond prediction accuracy: ProfileMe
// captures its contents at instruction fetch into the Profiled Path
// Register, which internal/pathprof uses to reconstruct execution paths
// (paper §5.3).
package bpred

import (
	"fmt"

	"profileme/internal/isa"
)

// Config sizes the prediction structures.
type Config struct {
	HistoryBits int // global history length (paper: 8-12 on 1997 processors)
	TableBits   int // log2 of the pattern history table size
	BTBEntries  int // direct-mapped BTB entries (power of two)
	RASEntries  int // return address stack depth
}

// DefaultConfig returns a 21264-flavoured predictor: 12 bits of global
// history, a 4K-entry PHT, 512-entry BTB and a 32-deep RAS.
func DefaultConfig() Config {
	return Config{HistoryBits: 12, TableBits: 12, BTBEntries: 512, RASEntries: 32}
}

// Validate reports a configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.HistoryBits < 1 || c.HistoryBits > 64:
		return fmt.Errorf("bpred: history bits %d out of range", c.HistoryBits)
	case c.TableBits < 1 || c.TableBits > 28:
		return fmt.Errorf("bpred: table bits %d out of range", c.TableBits)
	case c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0:
		return fmt.Errorf("bpred: BTB entries %d not a power of two", c.BTBEntries)
	case c.RASEntries <= 0:
		return fmt.Errorf("bpred: RAS entries %d not positive", c.RASEntries)
	}
	return nil
}

// Predictor bundles the prediction structures. Not safe for concurrent use.
type Predictor struct {
	cfg      Config
	histMask uint64
	history  uint64 // speculative global history; youngest branch in bit 0
	pht      []uint8
	phtMask  uint64
	btb      []btbEntry
	btbMask  uint64
	ras      []uint64
	rasTop   int // number of valid entries

	lookups    uint64
	mispredict uint64
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// newPredictor returns a predictor with all counters weakly not-taken.
func newPredictor(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:      cfg,
		histMask: (uint64(1) << cfg.HistoryBits) - 1,
		pht:      make([]uint8, 1<<cfg.TableBits),
		phtMask:  (uint64(1) << cfg.TableBits) - 1,
		btb:      make([]btbEntry, cfg.BTBEntries),
		btbMask:  uint64(cfg.BTBEntries - 1),
		ras:      make([]uint64, cfg.RASEntries),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	return p, nil
}

// MustNew builds a predictor, panicking on error; for static configurations.
func MustNew(cfg Config) *Predictor {
	p, err := newPredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// History returns the current (speculative) global branch history register.
// Bit 0 is the direction of the most recent conditional branch; bit k the
// one k branches earlier. Only the low HistoryBits are meaningful.
func (p *Predictor) History() uint64 { return p.history & p.histMask }

// HistoryBits returns the number of meaningful history bits.
func (p *Predictor) HistoryBits() int { return p.cfg.HistoryBits }

// SetHistory overwrites the global history register; used when recovering
// from a mispredicted branch (the checkpointed value is restored).
func (p *Predictor) SetHistory(h uint64) { p.history = h & p.histMask }

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return ((pc / isa.InstBytes) ^ p.history) & p.phtMask
}

// PredictCond predicts the direction of the conditional branch at pc using
// the current history (gshare). It does not change any state.
func (p *Predictor) PredictCond(pc uint64) bool {
	return p.pht[p.phtIndex(pc)] >= 2
}

// PushHistory speculatively shifts a predicted direction into the global
// history register. Call at fetch, for every conditional branch.
func (p *Predictor) PushHistory(taken bool) {
	p.history = (p.history << 1) & p.histMask
	if taken {
		p.history |= 1
	}
}

// UpdateCond trains the pattern history table for the branch at pc with its
// resolved direction. histAtFetch must be the history value the prediction
// was made under, so training hits the same PHT entry.
func (p *Predictor) UpdateCond(pc uint64, taken bool, histAtFetch uint64) {
	idx := ((pc / isa.InstBytes) ^ (histAtFetch & p.histMask)) & p.phtMask
	c := p.pht[idx]
	if taken {
		if c < 3 {
			p.pht[idx] = c + 1
		}
	} else if c > 0 {
		p.pht[idx] = c - 1
	}
}

// RecordOutcome tallies prediction accuracy statistics.
func (p *Predictor) RecordOutcome(correct bool) {
	p.lookups++
	if !correct {
		p.mispredict++
	}
}

// Accuracy returns (lookups, mispredicts) recorded via RecordOutcome.
func (p *Predictor) Accuracy() (lookups, mispredicts uint64) {
	return p.lookups, p.mispredict
}

// BTBLookup returns the predicted target for the indirect control transfer
// at pc, and whether the BTB held an entry.
func (p *Predictor) BTBLookup(pc uint64) (target uint64, ok bool) {
	e := p.btb[(pc/isa.InstBytes)&p.btbMask]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// BTBUpdate installs the resolved target of the transfer at pc.
func (p *Predictor) BTBUpdate(pc, target uint64) {
	p.btb[(pc/isa.InstBytes)&p.btbMask] = btbEntry{pc: pc, target: target, valid: true}
}

// RASPush records a return address at a call.
func (p *Predictor) RASPush(ret uint64) {
	if p.rasTop == len(p.ras) {
		// Overflow: drop the oldest entry (shift; stacks are small).
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = ret
	p.rasTop++
}

// RASPop predicts a return target. ok is false when the stack is empty.
func (p *Predictor) RASPop() (target uint64, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

// RASDepth returns the number of valid RAS entries (a mispredict-recovery
// checkpoint; see RASRestore).
func (p *Predictor) RASDepth() int { return p.rasTop }

// RASRestore rewinds the stack pointer to a checkpointed depth. This is
// the usual cheap top-of-stack recovery: entries above the checkpoint are
// discarded; entries below may have been clobbered by wrong-path pushes
// (an accepted approximation, as in real hardware).
func (p *Predictor) RASRestore(depth int) {
	if depth < 0 {
		depth = 0
	}
	if depth > len(p.ras) {
		depth = len(p.ras)
	}
	p.rasTop = depth
}
