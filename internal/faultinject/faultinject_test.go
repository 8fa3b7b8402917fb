package faultinject

import (
	"testing"

	"profileme/internal/core"
)

// mustNewPlan is NewPlan, panicking on error.
func mustNewPlan(seed uint64, r Rates) *Plan {
	p, err := NewPlan(seed, r)
	if err != nil {
		panic(err)
	}
	return p
}

func TestRatesValidate(t *testing.T) {
	bad := []Rates{
		{DropInterrupt: -0.1},
		{CorruptSample: 1.5},
		{DelayInterrupt: 0.5, DelayCycles: -1},
		{StallDrain: 0.5, StallCycles: -7},
	}
	for i, r := range bad {
		if _, err := NewPlan(1, r); err == nil {
			t.Errorf("case %d: bad rates accepted", i)
		}
	}
	if _, err := NewPlan(1, Uniform(0.3)); err != nil {
		t.Fatal(err)
	}
	if err := Uniform(1).validate(); err != nil {
		t.Fatalf("full-rate plan rejected: %v", err)
	}
}

// drive exercises every hook a fixed number of times and returns the
// decision trace, for determinism checks.
func drive(p *Plan) []int64 {
	var trace []int64
	ss := make([]core.Sample, 4)
	for i := 0; i < 200; i++ {
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		trace = append(trace, b2i(p.SuppressInterrupt()), b2i(p.OverwriteOnFull()),
			p.HoldInterrupt(), int64(p.CorruptDrained(ss)))
	}
	return trace
}

func TestPlanDeterministic(t *testing.T) {
	a := mustNewPlan(42, Uniform(0.3))
	b := mustNewPlan(42, Uniform(0.3))
	ta, tb := drive(a), drive(b)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("decision %d diverged: %d vs %d", i, ta[i], tb[i])
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	c := mustNewPlan(43, Uniform(0.3))
	tc := drive(c)
	same := true
	for i := range ta {
		if ta[i] != tc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical traces")
	}
}

func TestZeroRatePlanIsTransparent(t *testing.T) {
	p := mustNewPlan(7, Rates{})
	ss := []core.Sample{{}, {}}
	for i := 0; i < 100; i++ {
		if p.SuppressInterrupt() || p.OverwriteOnFull() || p.HoldInterrupt() != 0 ||
			p.CorruptDrained(ss) != 0 {
			t.Fatal("zero-rate plan injected a fault")
		}
	}
	if p.Counts() != (Counts{}) {
		t.Fatalf("zero-rate plan counted faults: %+v", p.Counts())
	}
}

func TestFullRatePlan(t *testing.T) {
	p := mustNewPlan(7, Uniform(1))
	if !p.SuppressInterrupt() || !p.OverwriteOnFull() {
		t.Fatal("full-rate plan skipped a fault")
	}
	r := Uniform(1)
	if h := p.HoldInterrupt(); h != r.DelayCycles+r.CoalesceCycles+r.StallCycles {
		t.Fatalf("hold = %d, want sum of durations", h)
	}
	ss := make([]core.Sample, 8)
	if n := p.CorruptDrained(ss); n != 8 {
		t.Fatalf("corrupted %d of 8", n)
	}
	c := p.Counts()
	if c.InterruptsDropped != 1 || c.Overwrites != 1 || c.InterruptsDelayed != 1 ||
		c.InterruptsCoalesced != 1 || c.DrainsStalled != 1 || c.SamplesCorrupted != 8 {
		t.Fatalf("counts wrong: %+v", c)
	}
}

// TestCorruptFlipsExactlyOneBit checks each corruption is a single bit flip
// in a single field: software must face point damage, not wholesale
// garbage.
func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	p := mustNewPlan(11, Rates{CorruptSample: 1})
	for i := 0; i < 500; i++ {
		// Zero-valued records make flipped bits visible as popcounts.
		ss := []core.Sample{{}}
		p.CorruptDrained(ss)
		mutated := ss[0]
		bits := popcount64(mutated.First.PC) + popcount64(mutated.First.Addr) +
			popcount64(uint64(mutated.First.Events)) + popcount64(uint64(mutated.First.Trap)) +
			popcount64(mutated.First.History) + popcount64(uint64(mutated.First.FetchSeq))
		for _, c := range mutated.First.StageCycle {
			bits += popcount64(uint64(c))
		}
		bits += popcount64(uint64(mutated.First.LoadComplete))
		if bits != 1 {
			t.Fatalf("iteration %d: %d bits flipped, want 1 (%+v)", i, bits, mutated.First)
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
