package cpu

import (
	"fmt"
	"testing"

	"profileme/internal/core"
	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// randomConfig draws a valid configuration: widths 1–8, a ROB of 2–128,
// queues of 1–32, any issue order, wrong-path and replay setting, memory
// latency up to 1,000 cycles and divides up to 60.
func randomConfig(r *stats.RNG) Config {
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.MapWidth, cfg.RetireWidth = r.IntRange(1, 8), r.IntRange(1, 8), r.IntRange(1, 8)
	cfg.SustainedIssueWidth = r.IntRange(1, 8)
	cfg.IntUnits, cfg.MemPorts, cfg.FPUnits = r.IntRange(1, 8), r.IntRange(1, 8), r.IntRange(1, 8)
	cfg.ROBSize = r.IntRange(2, 128)
	cfg.IQInt, cfg.IQFP = r.IntRange(1, 32), r.IntRange(1, 32)
	cfg.FetchBuf = r.IntRange(cfg.FetchWidth, 32)
	cfg.PhysRegs = isa.NumRegs + cfg.MapWidth + r.IntRange(0, 96)
	cfg.InOrder, cfg.NoWrongPath, cfg.ReplayTraps = r.Bool(0.3), r.Bool(0.2), r.Bool(0.5)
	cfg.MispredictPenalty, cfg.TakenBranchBubble = r.IntRange(0, 20), r.IntRange(0, 3)
	cfg.InterruptCost = 0
	cfg.Lat.IntMul, cfg.Lat.FAdd, cfg.Lat.FDiv = r.IntRange(1, 12), r.IntRange(1, 8), r.IntRange(1, 60)
	cfg.Mem.TLBPenalty = r.IntRange(0, 60)
	cfg.Mem.L2Latency = r.IntRange(1, 40)
	cfg.Mem.MemLatency = r.IntRange(1, 1000)
	return cfg
}

// TestObserveContract runs generated configurations, each on a suite
// kernel with a hierarchy built from its cfg.Mem, and holds the leave
// stream to Observe's contract: the retired leaves are the functional
// machine's stream in order, every fetched instruction leaves exactly
// once, and each slot lies in [-1, ROBSize). An event scheduled beyond
// the ring's span panics and fails the test with its configuration.
// Each leave's record is checked too (checkLeaveRecord).
func TestObserveContract(t *testing.T) {
	const configs, scale = 200, 4000
	suite := workload.Suite()
	progs := make([]*isa.Program, len(suite))
	want := make([][]sim.Record, len(suite))
	for i, b := range suite {
		progs[i] = b.Build(scale)
		if _, err := sim.New(progs[i]).Run(0, func(rec sim.Record) { want[i] = append(want[i], rec) }); err != nil {
			t.Fatal(err)
		}
	}
	r := stats.NewRNG(7)
	for n := 0; n < configs; n++ {
		cfg, k := randomConfig(r), n%len(suite)
		name := fmt.Sprintf("config %d (%s)", n, suite[k].Name)
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("%s: %v\n%+v", name, v, cfg)
				}
			}()
			prog := progs[k]
			p, err := NewWithHierarchy(prog, sim.NewMachineSource(sim.New(prog), 0), cfg, mem.NewHierarchy(cfg.Mem))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var leaves, retired, offPath uint64
			p.Observe(func(l Leave) {
				leaves++
				if l.Slot < -1 || l.Slot >= cfg.ROBSize {
					t.Fatalf("%s: slot %d outside [-1, %d)", name, l.Slot, cfg.ROBSize)
				}
				if err := checkLeaveRecord(prog, want[k], &l); err != nil {
					t.Fatalf("%s: leave of pc %#x: %v\n%+v", name, l.PC, err, l.Record)
				}
				if l.Events.Has(core.EvOffPath) {
					offPath++
				}
				if !l.Retired() {
					return
				}
				if w := want[k]; retired >= uint64(len(w)) || l.RecSeq != w[retired].Seq || l.PC != w[retired].PC {
					t.Fatalf("%s: retirement %d is (seq %d, pc %#x), not the functional stream's", name, retired, l.RecSeq, l.PC)
				}
				retired++
			})
			res, err := p.Run(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if retired != uint64(len(want[k])) || retired != res.Retired {
				t.Fatalf("%s: %d retired leaves, result %d, functional %d", name, retired, res.Retired, len(want[k]))
			}
			if fetched := res.FetchedOnPath + res.FetchedOffPath; leaves != fetched {
				t.Fatalf("%s: %d leaves for %d fetched instructions", name, leaves, fetched)
			}
			if offPath != res.FetchedOffPath {
				t.Fatalf("%s: %d off-path leaves for %d wrong-path fetches", name, offPath, res.FetchedOffPath)
			}
		}()
	}
}

// checkLeaveRecord holds one leave's record of a drained run to what the
// pipeline did with its instruction. Its stages are non-decreasing where
// set; a retired record has every stage and no trap, a squashed one a
// bad-path or replay trap. The address is valid exactly for a memory op
// that issued, and a load's value arrives at or after its issue. EvOffPath
// marks a wrong-path instruction: one that is not the functional stream's
// instruction at its sequence number, and never retires (the caller counts
// the marks against the wrong-path fetches).
func checkLeaveRecord(prog *isa.Program, stream []sim.Record, l *Leave) error {
	last := int64(-1)
	for st, c := range l.StageCycle {
		if c < 0 {
			if l.Retired() {
				return fmt.Errorf("retired with stage %v unset", core.Stage(st))
			}
			continue
		}
		if c < last {
			return fmt.Errorf("stage %v at cycle %d, before an earlier stage's %d", core.Stage(st), c, last)
		}
		last = c
	}
	switch {
	case l.Retired() && l.Trap != core.TrapNone:
		return fmt.Errorf("retired with trap %v", l.Trap)
	case !l.Retired() && l.Trap != core.TrapBadPath && l.Trap != core.TrapReplay:
		return fmt.Errorf("squashed with trap %v", l.Trap)
	}
	inst, _ := prog.At(l.PC)
	issued := l.StageCycle[core.StageIssue] >= 0
	if l.AddrValid != (inst.Op.IsMem() && issued) {
		return fmt.Errorf("address valid %v for %v, issued %v", l.AddrValid, inst.Op, issued)
	}
	if l.LoadComplete >= 0 && (inst.Op.Class() != isa.ClassLoad || !issued || l.LoadComplete < l.StageCycle[core.StageIssue]) {
		return fmt.Errorf("value of %v arrived at cycle %d, issued at %d", inst.Op, l.LoadComplete, l.StageCycle[core.StageIssue])
	}
	if l.Events.Has(core.EvOffPath) {
		if l.Retired() {
			return fmt.Errorf("an off-path instruction retired")
		}
		return nil
	}
	if l.RecSeq >= uint64(len(stream)) || stream[l.RecSeq].PC != l.PC {
		return fmt.Errorf("on-path, but not the functional stream's instruction %d", l.RecSeq)
	}
	if l.AddrValid && l.Addr != stream[l.RecSeq].EA {
		return fmt.Errorf("address %#x, functional %#x", l.Addr, stream[l.RecSeq].EA)
	}
	return nil
}
