package bpred

import (
	"testing"
	"testing/quick"
)

func newP(t *testing.T) *Predictor {
	t.Helper()
	p, err := newPredictor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{HistoryBits: 0, TableBits: 10, BTBEntries: 16, RASEntries: 4},
		{HistoryBits: 70, TableBits: 10, BTBEntries: 16, RASEntries: 4},
		{HistoryBits: 8, TableBits: 0, BTBEntries: 16, RASEntries: 4},
		{HistoryBits: 8, TableBits: 10, BTBEntries: 15, RASEntries: 4},
		{HistoryBits: 8, TableBits: 10, BTBEntries: 16, RASEntries: 0},
	}
	for i, cfg := range bad {
		if _, err := newPredictor(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := newPredictor(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestAlwaysTakenBranchLearns(t *testing.T) {
	p := newP(t)
	const pc = 0x40
	wrong := 0
	for i := 0; i < 100; i++ {
		h := p.History()
		pred := p.PredictCond(pc)
		p.PushHistory(true)
		p.UpdateCond(pc, true, h)
		// The first ~HistoryBits iterations see fresh history values and
		// index cold PHT entries; only steady state must be perfect.
		if i >= 20 && !pred {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("always-taken branch mispredicted %d times after warmup", wrong)
	}
}

func TestAlternatingBranchLearnsWithHistory(t *testing.T) {
	// A strictly alternating branch is perfectly predictable through
	// global history once the PHT trains: the history disambiguates the
	// two phases.
	p := newP(t)
	const pc = 0x80
	wrong := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		h := p.History()
		pred := p.PredictCond(pc)
		p.PushHistory(taken)
		p.UpdateCond(pc, taken, h)
		if i >= 100 && pred != taken {
			wrong++
		}
	}
	if wrong > 10 {
		t.Fatalf("alternating branch mispredicted %d/300 after warmup", wrong)
	}
}

func TestHistoryShiftsAndMasks(t *testing.T) {
	p := newP(t)
	p.PushHistory(true)
	p.PushHistory(false)
	p.PushHistory(true)
	if p.History()&0x7 != 0b101 {
		t.Fatalf("history = %b", p.History())
	}
	for i := 0; i < 100; i++ {
		p.PushHistory(true)
	}
	if p.History() != (1<<p.HistoryBits())-1 {
		t.Fatalf("history not saturated at mask: %b", p.History())
	}
}

func TestSetHistoryRestores(t *testing.T) {
	p := newP(t)
	p.PushHistory(true)
	p.PushHistory(true)
	saved := p.History()
	p.PushHistory(false)
	p.PushHistory(true)
	p.SetHistory(saved)
	if p.History() != saved {
		t.Fatal("history restore failed")
	}
}

func TestBTB(t *testing.T) {
	p := newP(t)
	if _, ok := p.BTBLookup(0x100); ok {
		t.Fatal("cold BTB hit")
	}
	p.BTBUpdate(0x100, 0x2000)
	if tgt, ok := p.BTBLookup(0x100); !ok || tgt != 0x2000 {
		t.Fatalf("BTB lookup = %#x, %v", tgt, ok)
	}
	// A conflicting PC (same index, different tag) must not false-hit.
	conflict := uint64(0x100 + 512*4)
	if _, ok := p.BTBLookup(conflict); ok {
		t.Fatal("BTB aliased")
	}
	p.BTBUpdate(conflict, 0x3000)
	if _, ok := p.BTBLookup(0x100); ok {
		t.Fatal("evicted entry still hit")
	}
}

func TestRASPushPop(t *testing.T) {
	p := newP(t)
	p.RASPush(0x10)
	p.RASPush(0x20)
	if tgt, ok := p.RASPop(); !ok || tgt != 0x20 {
		t.Fatalf("pop = %#x, %v", tgt, ok)
	}
	if tgt, ok := p.RASPop(); !ok || tgt != 0x10 {
		t.Fatalf("pop = %#x, %v", tgt, ok)
	}
	if _, ok := p.RASPop(); ok {
		t.Fatal("pop from empty stack succeeded")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 2
	p := MustNew(cfg)
	p.RASPush(1)
	p.RASPush(2)
	p.RASPush(3)
	if tgt, _ := p.RASPop(); tgt != 3 {
		t.Fatalf("top = %d", tgt)
	}
	if tgt, _ := p.RASPop(); tgt != 2 {
		t.Fatalf("second = %d", tgt)
	}
	if _, ok := p.RASPop(); ok {
		t.Fatal("oldest entry should have been dropped")
	}
}

func TestRASRestore(t *testing.T) {
	p := newP(t)
	p.RASPush(1)
	depth := p.RASDepth()
	p.RASPush(2)
	p.RASPush(3)
	p.RASRestore(depth)
	if tgt, ok := p.RASPop(); !ok || tgt != 1 {
		t.Fatalf("after restore pop = %#x, %v", tgt, ok)
	}
	p.RASRestore(-5)
	if p.RASDepth() != 0 {
		t.Fatal("negative restore not clamped")
	}
	p.RASRestore(1000)
	if p.RASDepth() != len(p.ras) {
		t.Fatal("oversized restore not clamped")
	}
}

func TestAccuracyCounters(t *testing.T) {
	p := newP(t)
	p.RecordOutcome(true)
	p.RecordOutcome(false)
	p.RecordOutcome(false)
	l, m := p.Accuracy()
	if l != 3 || m != 2 {
		t.Fatalf("accuracy = %d/%d", m, l)
	}
}

func TestPHTCountersStayInRange(t *testing.T) {
	f := func(pcs []uint16, dirs []bool) bool {
		p := MustNew(DefaultConfig())
		n := len(pcs)
		if len(dirs) < n {
			n = len(dirs)
		}
		for i := 0; i < n; i++ {
			pc := uint64(pcs[i]) * 4
			h := p.History()
			p.PredictCond(pc)
			p.PushHistory(dirs[i])
			p.UpdateCond(pc, dirs[i], h)
		}
		for _, c := range p.pht {
			if c > 3 {
				return false
			}
		}
		return p.History() == p.History()&((1<<p.HistoryBits())-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateUsesFetchHistory(t *testing.T) {
	// Two branch contexts that differ only in history must train distinct
	// PHT entries: train pc under h1=...1 as taken, under h2=...0 as
	// not-taken, then verify the predictions differ.
	p := newP(t)
	const pc = 0x400
	h1, h2 := uint64(1), uint64(0)
	for i := 0; i < 10; i++ {
		p.UpdateCond(pc, true, h1)
		p.UpdateCond(pc, false, h2)
	}
	p.SetHistory(h1)
	pred1 := p.PredictCond(pc)
	p.SetHistory(h2)
	pred2 := p.PredictCond(pc)
	if !pred1 || pred2 {
		t.Fatalf("history-disambiguated predictions wrong: %v %v", pred1, pred2)
	}
}
