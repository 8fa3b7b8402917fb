package profile

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"profileme/internal/core"
	"profileme/internal/stats"
)

func TestEstimateCountUnbiased(t *testing.T) {
	// Property-based check of §5.1: sample a synthetic population of N
	// instructions where a fraction f has property P at interval S; the
	// estimate kS must be within a few standard deviations of fN.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const n = 200000
		s := float64(rng.IntRange(20, 200))
		frac := 0.05 + 0.5*rng.Float64()
		var k, actual uint64
		countdown := rng.Geometric(s)
		for i := 0; i < n; i++ {
			has := rng.Float64() < frac
			if has {
				actual++
			}
			countdown--
			if countdown == 0 {
				countdown = rng.Geometric(s)
				if has {
					k++
				}
			}
		}
		est := estimateCount(k, s)
		if k == 0 {
			return true
		}
		sigma := est * relativeError(k)
		diff := math.Abs(est - float64(actual))
		return diff < 5*sigma+s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if !math.IsInf(relativeError(0), 1) {
		t.Fatal("k=0 should be infinite error")
	}
	if got := relativeError(100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError(100) = %v", got)
	}
	if relativeError(4) <= relativeError(16) {
		t.Fatal("error must shrink with more samples")
	}
}

func TestConfidenceInterval(t *testing.T) {
	lo, hi := ConfidenceInterval(100, 10, 1)
	if lo >= hi {
		t.Fatal("degenerate interval")
	}
	est := estimateCount(100, 10)
	if est < lo || est > hi {
		t.Fatal("estimate outside its own interval")
	}
	if math.Abs((hi-est)-est*0.1) > 1e-9 {
		t.Fatalf("interval half-width wrong: %v", hi-est)
	}
	lo, _ = ConfidenceInterval(1, 10, 3)
	if lo < 0 {
		t.Fatal("negative lower bound not clamped")
	}
}

func TestRateEstimate(t *testing.T) {
	if RateEstimate(5, 0) != 0 {
		t.Fatal("division by zero")
	}
	if RateEstimate(5, 20) != 0.25 {
		t.Fatal("rate wrong")
	}
}

// rec builds a record with the given stage cycles (-1 = unset).
func rec(pc uint64, retired bool, cycles ...int64) core.Record {
	r := core.Record{PC: pc, LoadComplete: -1}
	for i := range r.StageCycle {
		r.StageCycle[i] = -1
	}
	for i, c := range cycles {
		if i < core.NumStages {
			r.StageCycle[core.Stage(i)] = c
		}
	}
	if retired {
		r.Events |= core.EvRetired
	}
	return r
}

func TestUsefulOverlap(t *testing.T) {
	// a: fetch 0, map 1, ready 2, issue 3, retire-ready 20, retire 25.
	a := rec(0x10, true, 0, 1, 2, 3, 20, 25)
	// b issues inside a's [0,20) window and retires.
	b := rec(0x20, true, 5, 6, 7, 8, 9, 26)
	if !usefulOverlap(&a, &b) {
		t.Fatal("overlap not detected")
	}
	// b issues after a is retire-ready.
	late := rec(0x20, true, 5, 6, 7, 21, 22, 27)
	if usefulOverlap(&a, &late) {
		t.Fatal("late issue counted as overlap")
	}
	// b aborted: not useful.
	aborted := rec(0x20, false, 5, 6, 7, 8, 9, 26)
	if usefulOverlap(&a, &aborted) {
		t.Fatal("aborted partner counted as useful")
	}
	// a aborted (no retire-ready): no window.
	noWindow := rec(0x10, false, 0, 1, -1, -1, -1, 9)
	if usefulOverlap(&noWindow, &b) {
		t.Fatal("aborted instruction has no in-progress window")
	}
}

func TestRetiredWithin(t *testing.T) {
	a := rec(0x10, true, 0, 1, 2, 3, 4, 100)
	b := rec(0x20, true, 0, 1, 2, 3, 4, 120)
	if !retiredWithin(&a, &b, 30) || !retiredWithin(&b, &a, 30) {
		t.Fatal("within-30 missed")
	}
	if retiredWithin(&a, &b, 10) {
		t.Fatal("within-10 false positive")
	}
	ab := rec(0x20, false, 0, 1, 2, 3, 4, 110)
	if retiredWithin(&a, &ab, 30) {
		t.Fatal("aborted partner counted")
	}
}

func TestDBSingleSampleAggregation(t *testing.T) {
	db := NewDB(100, 80, 4)
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Events |= core.EvDCacheMiss | core.EvTaken
	db.Add(core.Sample{First: r})
	db.Add(core.Sample{First: r})
	miss := rec(0x40, false, 0, 2, -1, -1, -1, 4)
	db.Add(core.Sample{First: miss})

	a := db.Get(0x40)
	if a == nil || a.Samples != 3 {
		t.Fatalf("acc = %+v", a)
	}
	if a.Retired() != 2 {
		t.Fatalf("retired = %d", a.Retired())
	}
	if a.EventCount(core.EvDCacheMiss) != 2 {
		t.Fatal("dcache miss count")
	}
	// fetch->map latency available for all 3, later stages only for 2.
	if a.LatCount[0] != 3 || a.LatCount[3] != 2 {
		t.Fatalf("latency counts = %v", a.LatCount)
	}
	if got := a.MeanLatency(0); got != 2 {
		t.Fatalf("fetch->map mean = %v", got)
	}
	if got := db.EstimatedCount(0x40); got != 300 {
		t.Fatalf("estimated count = %v", got)
	}
	if got := db.EstimatedEventCount(0x40, core.EvDCacheMiss); got != 200 {
		t.Fatalf("estimated misses = %v", got)
	}
	if db.Samples() != 3 {
		t.Fatal("sample count")
	}
}

func TestDBEmptySlotSamplesIgnored(t *testing.T) {
	db := NewDB(10, 80, 4)
	empty := rec(0, false)
	empty.Events |= core.EvNoInstruction
	db.Add(core.Sample{First: empty})
	if len(db.PCs()) != 0 {
		t.Fatal("empty slot attributed to a PC")
	}
	if db.Samples() != 1 {
		t.Fatal("sample not counted at all")
	}
}

func TestDBPairedAggregation(t *testing.T) {
	db := NewDB(50, 10, 4)
	a := rec(0x10, true, 0, 1, 2, 3, 20, 25)
	b := rec(0x20, true, 5, 6, 7, 8, 9, 26)
	db.Add(core.Sample{First: a, Second: b, Paired: true, FetchDistance: 3, FetchLatency: 5})

	accA, accB := db.Get(0x10), db.Get(0x20)
	if accA == nil || accB == nil {
		t.Fatal("both PCs should be present")
	}
	if accA.PairSamples != 1 || accB.PairSamples != 1 {
		t.Fatal("pair accounting")
	}
	// b issued (8) inside a's window [0,20) and retired: U for a.
	if accA.UsefulOverlap != 1 {
		t.Fatal("useful overlap for first")
	}
	// a issued (3) inside b's window [5,9)? 3 < 5: no.
	if accB.UsefulOverlap != 0 {
		t.Fatal("useful overlap for second should be 0")
	}
	if db.Pairs() != 1 {
		t.Fatal("pair count")
	}

	wasted, total, useful, ok := db.WastedSlots(0x10)
	if !ok {
		t.Fatal("no wasted-slot estimate")
	}
	// L=20, C=4, S=50 => total = 20*4*50/2 = 2000. useful = 1*10*50 = 500.
	if total != 2000 || useful != 500 || wasted != 1500 {
		t.Fatalf("wasted=%v total=%v useful=%v", wasted, total, useful)
	}
}

func TestDBWastedSlotsClamped(t *testing.T) {
	db := NewDB(1, 1000, 4)
	a := rec(0x10, true, 0, 1, 2, 3, 4, 5) // tiny window
	b := rec(0x20, true, 0, 1, 2, 3, 4, 5)
	db.Add(core.Sample{First: a, Second: b, Paired: true})
	wasted, _, _, ok := db.WastedSlots(0x10)
	if !ok || wasted != 0 {
		t.Fatalf("wasted = %v, want clamp to 0", wasted)
	}
}

func TestDBNeighborhoodIPC(t *testing.T) {
	db := NewDB(50, 60, 4)
	db.TNear = 30
	a := rec(0x10, true, 0, 1, 2, 3, 4, 100)
	near := rec(0x20, true, 5, 6, 7, 8, 9, 110)
	far := rec(0x30, true, 5, 6, 7, 8, 9, 500)
	db.Add(core.Sample{First: a, Second: near, Paired: true})
	db.Add(core.Sample{First: a, Second: far, Paired: true})
	ipc, ok := db.NeighborhoodIPC(0x10)
	if !ok {
		t.Fatal("no estimate")
	}
	// fraction 0.5, W=60, T=30 => 1.0
	if math.Abs(ipc-1.0) > 1e-9 {
		t.Fatalf("ipc = %v", ipc)
	}
	if _, ok := db.NeighborhoodIPC(0x999); ok {
		t.Fatal("estimate for unseen PC")
	}
}

func TestDBHotPCsOrder(t *testing.T) {
	db := NewDB(10, 80, 4)
	for i := 0; i < 5; i++ {
		db.Add(core.Sample{First: rec(0x10, true, 0, 1, 2, 3, 4, 5)})
	}
	for i := 0; i < 2; i++ {
		db.Add(core.Sample{First: rec(0x20, true, 0, 1, 2, 3, 4, 5)})
	}
	hot := db.HotPCs(10)
	if len(hot) != 2 || hot[0].PC != 0x10 || hot[1].PC != 0x20 {
		t.Fatalf("hot order wrong: %+v", hot)
	}
	if got := db.HotPCs(1); len(got) != 1 {
		t.Fatal("limit ignored")
	}
}

func TestDBReportRenders(t *testing.T) {
	db := NewDB(10, 80, 4)
	r := rec(0x10, true, 0, 1, 2, 3, 4, 5)
	r.Events |= core.EvDCacheMiss
	db.Add(core.Sample{First: r})
	out := db.Report(nil, 10)
	if !strings.Contains(out, "0x10") || !strings.Contains(out, "samples") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestLatencyKindMetadata(t *testing.T) {
	if NumLatencyKinds != 5 {
		t.Fatal("latency kind count")
	}
	for i := 0; i < NumLatencyKinds; i++ {
		if LatencyKindName(i) == "" || LatencyKindDiagnosis(i) == "" {
			t.Fatalf("kind %d missing metadata", i)
		}
	}
}
