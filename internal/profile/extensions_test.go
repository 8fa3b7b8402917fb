package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/sim"
)

// pairSample builds a paired sample at the given fetch distance.
func pairSample(aPC, bPC uint64, dist uint64) core.Sample {
	a := rec(aPC, true, 0, 1, 2, 3, 20, 25)
	b := rec(bPC, true, int64(dist), int64(dist)+1, int64(dist)+2, int64(dist)+3, int64(dist)+20, int64(dist)+25)
	return core.Sample{First: a, Second: b, Paired: true, FetchDistance: dist, FetchLatency: int64(dist)}
}

func TestEdgeProfileBasics(t *testing.T) {
	e := NewEdgeProfile(100, 50)
	e.Add(pairSample(0x10, 0x14, 1))
	e.Add(pairSample(0x10, 0x14, 1))
	e.Add(pairSample(0x10, 0x40, 1))                             // a taken branch edge
	e.Add(pairSample(0x10, 0x18, 2))                             // distance 2: ignored
	e.Add(core.Sample{First: rec(0x10, true, 0, 1, 2, 3, 4, 5)}) // unpaired: ignored

	if obs := e.Observations(0x10, 0x14); obs != 2 {
		t.Fatalf("observations = %d", obs)
	}
	if est := e.Estimate(0x10, 0x14); est != 2*100*50 {
		t.Fatalf("estimate = %v", est)
	}
	pairs, ones := e.Pairs()
	if pairs != 4 || ones != 3 {
		t.Fatalf("pairs=%d ones=%d", pairs, ones)
	}
	hot := e.hot(10)
	if len(hot) != 2 || hot[0].Edge != (edge{0x10, 0x14}) {
		t.Fatalf("hot = %+v", hot)
	}
	frac, ok := e.branchBias(0x10, 0x40)
	if !ok || math.Abs(frac-1.0/3) > 1e-12 {
		t.Fatalf("bias = %v, %v", frac, ok)
	}
	if _, ok := e.branchBias(0x999, 0x40); ok {
		t.Fatal("bias for unseen branch")
	}
	if out := e.Report(nil, 5); !strings.Contains(out, "distance 1") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestEdgeProfileAgainstGroundTruth(t *testing.T) {
	// A loop with a data-dependent diamond: the edge profile's estimated
	// branch bias must match the true taken fraction.
	prog := asm.MustAssemble(`
.proc main
    lda  r1, 60000(zero)
    lda  r5, 7(zero)
loop:
    mul  r5, r5, #48271
    srl  r6, r5, #16
    and  r6, r6, #7
    beq  r6, rare              ; taken ~1/8 of the time
    add  r3, r3, #1
    br   next
rare:
    add  r4, r4, #1
next:
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`)
	const (
		interval = 60
		window   = 40
	)
	unit := core.MustNewUnit(core.Config{
		Paired: true, MeanInterval: interval, Window: window, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 11,
	})
	edges := NewEdgeProfile(interval, window)
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	src := sim.NewMachineSource(sim.New(prog), 0)
	pipe, err := cpu.New(prog, src, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.AttachProfileMe(unit, edges.Handler())
	if _, err := pipe.Run(0); err != nil {
		t.Fatal(err)
	}

	beqPC := uint64(0)
	for i, in := range prog.Insts {
		if in.Op == isa.OpBeq {
			beqPC = uint64(i) * isa.InstBytes
		}
	}
	rarePC, _ := prog.Label("rare")
	frac, ok := edges.branchBias(beqPC, rarePC)
	if !ok {
		t.Fatal("branch never observed at distance 1")
	}
	if frac < 0.04 || frac > 0.25 {
		t.Fatalf("estimated taken fraction %.3f, true ~0.125", frac)
	}

	// The loop back-edge estimate should be near the true execution count.
	stats := pipe.PerPC()
	bnePC := uint64(len(prog.Insts)-2) * isa.InstBytes
	loopPC, _ := prog.Label("loop")
	trueCount := float64(stats[bnePC/isa.InstBytes].Taken)
	est := edges.Estimate(bnePC, loopPC)
	if est < trueCount/3 || est > trueCount*3 {
		t.Fatalf("back-edge estimate %.0f vs true %.0f", est, trueCount)
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

func TestCallGraphFromEdges(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    lda r1, 2000(zero)
mloop:
    jsr ra, alpha
    jsr ra, beta
    sub r1, r1, #1
    bne r1, mloop
    ret (r20)
.endp
.proc alpha
    add r2, r2, #1
    ret (ra)
.endp
.proc beta
    add r3, r3, #1
    add r4, r4, #1
    ret (ra)
.endp`)
	const (
		interval = 23
		window   = 20
	)
	edges := NewEdgeProfile(interval, window)
	unit := core.MustNewUnit(core.Config{
		Paired: true, MeanInterval: interval, Window: window, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 4,
	})
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	src := sim.NewMachineSource(sim.New(prog), 0)
	pipe, err := cpu.New(prog, src, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.AttachProfileMe(unit, edges.Handler())
	if _, err := pipe.Run(0); err != nil {
		t.Fatal(err)
	}

	cg := edges.callGraph(prog)
	if len(cg) == 0 {
		t.Fatal("no call edges observed")
	}
	seen := map[string]uint64{}
	for _, ce := range cg {
		if ce.CallerProc != "main" {
			t.Fatalf("unexpected caller %q", ce.CallerProc)
		}
		seen[ce.CalleeProc] = ce.Observed
	}
	if seen["alpha"] == 0 || seen["beta"] == 0 {
		t.Fatalf("call graph incomplete: %+v", cg)
	}
	// Both callees are invoked exactly once per iteration, so the edge
	// estimates should be within noise of each other and of the true
	// count (2000 each).
	for _, ce := range cg {
		if ce.Estimate < 400 || ce.Estimate > 8000 {
			t.Fatalf("%s->%s estimate %.0f, true 2000", ce.CallerProc, ce.CalleeProc, ce.Estimate)
		}
	}
}
