package main

import (
	"strings"
	"testing"
)

// The allocation count alone let a pass that made every allocation 290 KB
// read as a win; bytes/op is gated with the same tolerance.
func TestCheckGatesBytesPerOp(t *testing.T) {
	base := &Baseline{CalibNsPerOp: 1, Workloads: []Measurement{
		{Name: "li", NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 5_000_000, Cycles: 7},
	}}
	m := base.Workloads[0]
	if err := checkAgainst(base, []Measurement{m}, 1, 0.15); err != nil {
		t.Fatalf("unchanged measurement rejected: %v", err)
	}
	m.AllocsPerOp, m.BytesPerOp = 10, 50_000_000 // fewer, far larger allocations
	err := checkAgainst(base, []Measurement{m}, 1, 0.15)
	if err == nil || !strings.Contains(err.Error(), "bytes/op") {
		t.Fatalf("10x bytes/op passed the gate: %v", err)
	}
}
