package profile

import (
	"strings"
	"testing"

	"profileme/internal/core"
)

func TestPipelineProfileSynthetic(t *testing.T) {
	pp := NewPipelineProfile(0x10, 40, -5, 20)
	// Target fetched at cycle 100; partner fetch 102, map 104, issue 108,
	// retire-ready 110, retire 112.
	target := rec(0x10, true, 100, 101, 102, 103, 120, 125)
	partner := rec(0x20, true, 102, 104, 106, 108, 110, 112)
	pp.add(core.Sample{First: target, Second: partner, Paired: true})

	if pp.Pairs() != 1 {
		t.Fatalf("pairs = %d", pp.Pairs())
	}
	// At delta 3 (cycle 103) the partner is in front-end (fetch 102 ..
	// map 104).
	v, ok := pp.Occupancy(3, PhaseFrontEnd)
	if !ok || v != 40 { // count 1 x W/pairs = 40
		t.Fatalf("front-end occupancy = %v, %v", v, ok)
	}
	// At delta 6 (cycle 106) it waits in the queue (map 104 .. issue 108).
	if v, _ := pp.Occupancy(6, PhaseQueue); v != 40 {
		t.Fatalf("queue occupancy = %v", v)
	}
	// At delta 9 it executes; at delta 11 it waits to retire.
	if v, _ := pp.Occupancy(9, PhaseExecute); v != 40 {
		t.Fatalf("execute occupancy = %v", v)
	}
	if v, _ := pp.Occupancy(11, PhaseWaitRetire); v != 40 {
		t.Fatalf("wait-retire occupancy = %v", v)
	}
	// Outside its residency, zero.
	if v, _ := pp.Occupancy(-3, PhaseQueue); v != 0 {
		t.Fatalf("early occupancy = %v", v)
	}
	if _, ok := pp.Occupancy(999, PhaseQueue); ok {
		t.Fatal("out-of-range delta accepted")
	}
	if !strings.Contains(pp.Render(5), "queue") {
		t.Fatal("render")
	}
}

func TestPipelineProfileBothDirections(t *testing.T) {
	pp := NewPipelineProfile(0x10, 40, -10, 10)
	// Target as Second: partner fetched before it.
	partner := rec(0x20, true, 90, 91, 92, 93, 94, 95)
	target := rec(0x10, true, 100, 101, 102, 103, 104, 105)
	pp.add(core.Sample{First: partner, Second: target, Paired: true})
	if pp.Pairs() != 1 {
		t.Fatalf("pairs = %d", pp.Pairs())
	}
	// Partner executed at cycle 93 = delta -7.
	if v, _ := pp.Occupancy(-7, PhaseExecute); v != 40 {
		t.Fatalf("backward-view occupancy = %v", v)
	}
}
