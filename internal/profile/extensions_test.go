package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"profileme/internal/asm"
	"profileme/internal/core"
)

// pairSample builds a paired sample at the given fetch distance.
func pairSample(aPC, bPC uint64, dist uint64) core.Sample {
	a := rec(aPC, true, 0, 1, 2, 3, 20, 25)
	b := rec(bPC, true, int64(dist), int64(dist)+1, int64(dist)+2, int64(dist)+3, int64(dist)+20, int64(dist)+25)
	return core.Sample{First: a, Second: b, Paired: true, FetchDistance: dist, FetchLatency: int64(dist)}
}

func TestEdgeProfileBasics(t *testing.T) {
	e := NewEdgeProfile(100, 50)
	e.add(pairSample(0x10, 0x14, 1))
	e.add(pairSample(0x10, 0x14, 1))
	e.add(pairSample(0x10, 0x40, 1))                             // a taken branch edge
	e.add(pairSample(0x10, 0x18, 2))                             // distance 2: ignored
	e.add(core.Sample{First: rec(0x10, true, 0, 1, 2, 3, 4, 5)}) // unpaired: ignored

	if obs := e.Observations(0x10, 0x14); obs != 2 {
		t.Fatalf("observations = %d", obs)
	}
	if est := e.Estimate(0x10, 0x14); est != 2*100*50 {
		t.Fatalf("estimate = %v", est)
	}
	if e.pairs != 4 || e.hits != 3 {
		t.Fatalf("pairs=%d ones=%d", e.pairs, e.hits)
	}
	hot := e.hot(10)
	if len(hot) != 2 || hot[0].Edge != (edge{0x10, 0x14}) {
		t.Fatalf("hot = %+v", hot)
	}
	if obs := e.Observations(0x10, 0x40); obs != 1 {
		t.Fatalf("taken-edge observations = %d", obs)
	}
	if out := e.Report(nil, 5); !strings.Contains(out, "distance 1") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestByProcAggregation(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    jsr ra, leaf
    ret (r20)
.endp
.proc leaf
    add r2, r2, #1
    ret (ra)
.endp`)
	db := NewDB(10, 0, 4)
	leafPC, _ := prog.Label("leaf")
	r := rec(leafPC, true, 0, 1, 2, 3, 8, 9)
	r.Events |= core.EvDCacheMiss
	db.Add(core.Sample{First: r})
	db.Add(core.Sample{First: rec(0, true, 0, 1, 2, 3, 4, 5)})

	procs := byProc(db, prog)
	if len(procs) != 2 {
		t.Fatalf("procs = %+v", procs)
	}
	var leaf *procAccum
	for i := range procs {
		if procs[i].Name == "leaf" {
			leaf = &procs[i]
		}
	}
	if leaf == nil || leaf.Samples != 1 || leaf.DMiss != 1 {
		t.Fatalf("leaf = %+v", leaf)
	}
	if leaf.meanLatency() != 8 {
		t.Fatalf("leaf latency = %v", leaf.meanLatency())
	}
	out := ProcReport(db, prog)
	if !strings.Contains(out, "leaf") || !strings.Contains(out, "main") {
		t.Fatalf("report:\n%s", out)
	}
}

// TestByProcEstimateIsLossCorrected: on a database that recorded loss, a
// procedure rollup's retired estimates sum to the per-PC retired
// estimates, each S × the loss correction (EstimatedCount's rule).
func TestByProcEstimateIsLossCorrected(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    jsr ra, leaf
    ret (r20)
.endp
.proc leaf
    add r2, r2, #1
    ret (ra)
.endp`)
	db := NewDB(10, 0, 4)
	leafPC, _ := prog.Label("leaf")
	for i := 0; i < 3; i++ {
		db.Add(core.Sample{First: rec(leafPC, true, 0, 1, 2, 3, 8, 9)})
		db.Add(core.Sample{First: rec(4, true, 0, 1, 2, 3, 4, 5)})
	}
	db.Add(core.Sample{First: rec(0, false, 0, 1, 2)})
	db.RecordLoss(5)
	var want, got float64
	for _, pc := range db.PCs() {
		want += estimateCount(db.Get(pc).Retired(), db.S) * db.lossCorrection()
	}
	for _, a := range byProc(db, prog) {
		got += a.EstRetired
	}
	if math.Abs(want-6*10*12.0/7) > 1e-9 || math.Abs(got-want) > 1e-9*want {
		t.Fatalf("procedures' retired estimates sum to %v, the per-PC estimates to %v (want 6 × S 10 × 12/7)", got, want)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB(100, 80, 4)
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Events |= core.EvDCacheMiss
	db.Add(core.Sample{First: r})
	db.Add(pairSample(0x40, 0x44, 1))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples() != db.Samples() || got.Pairs() != db.Pairs() {
		t.Fatalf("counts differ: %d/%d vs %d/%d", got.Samples(), got.Pairs(), db.Samples(), db.Pairs())
	}
	if got.S != db.S || got.W != db.W || got.C != db.C {
		t.Fatal("config lost")
	}
	a, b := db.Get(0x40), got.Get(0x40)
	if a.Samples != b.Samples || a.EventCount(core.EvDCacheMiss) != b.EventCount(core.EvDCacheMiss) {
		t.Fatalf("accums differ: %+v vs %+v", a, b)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := LoadDB(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMerge(t *testing.T) {
	mk := func() *DB {
		db := NewDB(100, 80, 4)
		r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
		db.Add(core.Sample{First: r})
		return db
	}
	a, b := mk(), mk()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Samples() != 2 || a.Get(0x40).Samples != 2 {
		t.Fatalf("merge counts: %d, %d", a.Samples(), a.Get(0x40).Samples)
	}

	c := NewDB(999, 80, 4)
	if err := a.Merge(c); err == nil {
		t.Fatal("config mismatch not caught")
	}
}

func TestMergePreservesEstimates(t *testing.T) {
	// Merging two half-profiles must equal one combined profile.
	full := NewDB(10, 20, 4)
	h1 := NewDB(10, 20, 4)
	h2 := NewDB(10, 20, 4)
	for i := 0; i < 10; i++ {
		s := pairSample(0x10, 0x20, uint64(1+i%3))
		full.Add(s)
		if i%2 == 0 {
			h1.Add(s)
		} else {
			h2.Add(s)
		}
	}
	if err := h1.Merge(h2); err != nil {
		t.Fatal(err)
	}
	w1, t1, u1, _ := full.WastedSlots(0x10)
	w2, t2, u2, _ := h1.WastedSlots(0x10)
	if w1 != w2 || t1 != t2 || u1 != u2 {
		t.Fatalf("merged estimates differ: (%v %v %v) vs (%v %v %v)", w1, t1, u1, w2, t2, u2)
	}
}
