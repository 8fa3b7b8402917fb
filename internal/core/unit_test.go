package core

import (
	"strings"
	"testing"
	"testing/quick"

	"profileme/internal/stats"
)

// feed pushes n on-path instruction fetch opportunities into u, one per
// cycle starting at cycle c0, completing each selected instruction
// immediately at cycle+5 as retired. It returns the tags assigned.
func feed(u *Unit, c0 int64, n int, complete bool) []int {
	var tags []int
	for i := 0; i < n; i++ {
		cyc := c0 + int64(i)
		tag := u.OnFetch(cyc, uint64(0x100+4*i), true, true, 0, 12, 7)
		if tag != NoTag {
			tags = append(tags, tag)
			if complete {
				u.Complete(tag, true, TrapNone, cyc+5)
			}
		}
	}
	return tags
}

func singleCfg(interval float64) Config {
	cfg := DefaultConfig()
	cfg.MeanInterval = interval
	cfg.IntervalMode = IntervalFixed
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MeanInterval: 0, BufferDepth: 1},
		{MeanInterval: 10, BufferDepth: 0},
		{MeanInterval: 10, BufferDepth: 1, Paired: true, Window: 0},
	}
	for i, cfg := range bad {
		if _, err := NewUnit(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewUnit(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestFixedIntervalSelection(t *testing.T) {
	u := MustNewUnit(singleCfg(10))
	tags := feed(u, 0, 100, true)
	if len(tags) != 10 {
		t.Fatalf("selected %d, want 10", len(tags))
	}
	if u.Stats().Selected != 10 {
		t.Fatalf("stats.Selected = %d", u.Stats().Selected)
	}
}

func TestGeometricIntervalMeanRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeanInterval = 50
	u := MustNewUnit(cfg)
	tags := feed(u, 0, 100000, true)
	got := float64(len(tags))
	if got < 1700 || got > 2300 {
		t.Fatalf("selected %v of 100000 at mean interval 50", got)
	}
}

func TestSampleContents(t *testing.T) {
	u := MustNewUnit(singleCfg(3))
	// Fetch two slots, third is selected.
	u.OnFetch(10, 0x100, true, true, 0b1011, 12, 42)
	u.OnFetch(11, 0x104, true, true, 0b1011, 12, 42)
	tag := u.OnFetch(12, 0x108, true, true, 0b1011, 12, 42)
	if tag != 0 {
		t.Fatalf("tag = %d", tag)
	}
	// The whole record arrives at leave; the unit keeps only its FetchSeq.
	u.Leave(tag, &Record{
		Context: 42, PC: 0x108, Addr: 0xbeef, AddrValid: true,
		Events: EvRetired | EvDCacheMiss, History: 0b1011, HistoryBits: 12,
		StageCycle: [NumStages]int64{12, 14, 15, 16, 41, 45}, LoadComplete: 40, FetchSeq: 99,
	})

	if !u.InterruptPending() {
		t.Fatal("no interrupt after completed sample with depth 1")
	}
	samples := u.Drain()
	if len(samples) != 1 {
		t.Fatalf("%d samples", len(samples))
	}
	r := samples[0].First
	if r.PC != 0x108 || r.Context != 42 || r.History != 0b1011 || r.HistoryBits != 12 || r.FetchSeq != 3 {
		t.Fatalf("record = %+v", r)
	}
	if !r.Retired() || !r.Events.Has(EvDCacheMiss) {
		t.Fatalf("events = %v", r.Events)
	}
	if !r.AddrValid || r.Addr != 0xbeef {
		t.Fatalf("addr = %#x/%v", r.Addr, r.AddrValid)
	}
	if lat, ok := r.Latency(StageFetch, StageMap); !ok || lat != 2 {
		t.Fatalf("fetch->map = %d, %v", lat, ok)
	}
	if lat, ok := r.Latency(StageIssue, StageRetireReady); !ok || lat != 25 {
		t.Fatalf("issue->retire-ready = %d, %v", lat, ok)
	}
	if lat, ok := r.MemLatency(); !ok || lat != 24 {
		t.Fatalf("mem latency = %d, %v", lat, ok)
	}
	if from, to, ok := r.InProgress(); !ok || from != 12 || to != 41 {
		t.Fatalf("in progress = %d..%d, %v", from, to, ok)
	}
	if u.InterruptPending() {
		t.Fatal("interrupt not cleared by drain")
	}
}

func TestAbortedSampleVisible(t *testing.T) {
	u := MustNewUnit(singleCfg(1))
	tag := u.OnFetch(0, 0x200, true, true, 0, 12, 0)
	u.Complete(tag, false, TrapBadPath, 9)
	s := u.Drain()
	if len(s) != 1 {
		t.Fatalf("%d samples", len(s))
	}
	r := s[0].First
	if r.Retired() {
		t.Fatal("aborted instruction marked retired")
	}
	if r.Trap != TrapBadPath {
		t.Fatalf("trap = %v", r.Trap)
	}
	if _, ok := r.Latency(StageFetch, StageIssue); ok {
		t.Fatal("latency to a never-reached stage should be unavailable")
	}
	if lat, ok := r.Latency(StageFetch, StageRetire); !ok || lat != 9 {
		t.Fatalf("fetch->retire = %d, %v", lat, ok)
	}
}

func TestOffPathSelection(t *testing.T) {
	u := MustNewUnit(singleCfg(2))
	u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	tag := u.OnFetch(1, 0x999, true, false, 0, 12, 0) // off-path slot
	if tag != NoTag {
		t.Fatal("instruction-count mode must not select off-path slots")
	}

	cfg := singleCfg(2)
	cfg.CountMode = CountFetchOpportunities
	u2 := MustNewUnit(cfg)
	u2.OnFetch(0, 0x100, true, true, 0, 12, 0)
	tag = u2.OnFetch(1, 0x999, true, false, 0, 12, 0)
	if tag == NoTag {
		t.Fatal("fetch-opportunity mode should select off-path slots")
	}
	u2.Complete(tag, false, TrapBadPath, 5)
	s := u2.Drain()
	if !s[0].First.Events.Has(EvOffPath) {
		t.Fatalf("events = %v", s[0].First.Events)
	}
	if u2.Stats().OffPath != 1 {
		t.Fatalf("stats = %+v", u2.Stats())
	}
}

func TestEmptySlotSelection(t *testing.T) {
	cfg := singleCfg(2)
	cfg.CountMode = CountFetchOpportunities
	u := MustNewUnit(cfg)
	u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	tag := u.OnFetch(1, 0x104, false, false, 0, 12, 0) // fetcher stalled
	if tag == NoTag {
		t.Fatal("empty slot not selected in fetch-opportunity mode")
	}
	// Empty slots complete immediately.
	if !u.InterruptPending() {
		t.Fatal("empty-slot sample not delivered")
	}
	s := u.Drain()
	if !s[0].First.Events.Has(EvNoInstruction) {
		t.Fatalf("events = %v", s[0].First.Events)
	}
	if u.Stats().EmptySelected != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
}

func TestBuffering(t *testing.T) {
	cfg := singleCfg(1)
	cfg.BufferDepth = 4
	u := MustNewUnit(cfg)
	for i := 0; i < 3; i++ {
		tag := u.OnFetch(int64(i), uint64(0x100+4*i), true, true, 0, 12, 0)
		u.Complete(tag, true, TrapNone, int64(i)+3)
		if u.InterruptPending() {
			t.Fatalf("interrupt raised at %d buffered samples", i+1)
		}
	}
	tag := u.OnFetch(3, 0x10c, true, true, 0, 12, 0)
	u.Complete(tag, true, TrapNone, 6)
	if !u.InterruptPending() {
		t.Fatal("interrupt not raised at buffer depth")
	}
	if got := len(u.Drain()); got != 4 {
		t.Fatalf("drained %d", got)
	}
	st := u.Stats()
	if st.Interrupts != 1 || st.SamplesBuffered != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	cfg := singleCfg(1)
	cfg.BufferDepth = 1
	u := MustNewUnit(cfg)
	t1 := u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	u.Complete(t1, true, TrapNone, 2)
	// Software has not drained; next sample completes and is dropped.
	t2 := u.OnFetch(1, 0x104, true, true, 0, 12, 0)
	u.Complete(t2, true, TrapNone, 3)
	if got := u.Stats().SamplesDropped; got != 1 {
		t.Fatalf("dropped = %d", got)
	}
	if got := len(u.Drain()); got != 1 {
		t.Fatalf("drained %d", got)
	}
}

func TestPairedSampling(t *testing.T) {
	cfg := Config{
		Paired: true, MeanInterval: 5, Window: 4, BufferDepth: 1,
		CountMode: CountInstructions, IntervalMode: IntervalFixed, Seed: 3,
	}
	u := MustNewUnit(cfg)
	var first, second int
	for i := 0; i < 40 && !u.InterruptPending(); i++ {
		tag := u.OnFetch(int64(i), uint64(0x100+4*i), true, true, 0, 12, 0)
		switch tag {
		case 0:
			first = i
			u.Complete(tag, true, TrapNone, int64(i)+20)
		case 1:
			second = i
			u.Complete(tag, true, TrapNone, int64(i)+20)
		}
	}
	if !u.InterruptPending() {
		t.Fatal("paired sample never completed")
	}
	s := u.Drain()[0]
	if !s.Paired {
		t.Fatal("sample not paired")
	}
	wantDist := uint64(second - first)
	if wantDist < 1 || wantDist > 4 {
		t.Fatalf("realized minor interval %d outside window", wantDist)
	}
	if s.FetchDistance != wantDist {
		t.Fatalf("FetchDistance = %d, want %d", s.FetchDistance, wantDist)
	}
	if s.FetchLatency != int64(second-first) {
		t.Fatalf("FetchLatency = %d", s.FetchLatency)
	}
	if s.First.PC != uint64(0x100+4*first) || s.Second.PC != uint64(0x100+4*second) {
		t.Fatalf("pair PCs = %#x, %#x", s.First.PC, s.Second.PC)
	}
}

func TestPairedInterruptWaitsForBoth(t *testing.T) {
	cfg := Config{
		Paired: true, MeanInterval: 2, Window: 3, BufferDepth: 1,
		CountMode: CountInstructions, IntervalMode: IntervalFixed, Seed: 1,
	}
	u := MustNewUnit(cfg)
	var tag0 int = NoTag
	i := 0
	for ; tag0 == NoTag; i++ {
		tag0 = u.OnFetch(int64(i), uint64(0x100+4*i), true, true, 0, 12, 0)
	}
	// First completes before the second is even selected.
	u.Complete(tag0, true, TrapNone, int64(i)+1)
	if u.InterruptPending() {
		t.Fatal("interrupt before second sample selected")
	}
	var tag1 int = NoTag
	for ; tag1 == NoTag; i++ {
		tag1 = u.OnFetch(int64(i), uint64(0x100+4*i), true, true, 0, 12, 0)
	}
	if u.InterruptPending() {
		t.Fatal("interrupt before second sample completed")
	}
	u.Complete(tag1, true, TrapNone, int64(i)+5)
	if !u.InterruptPending() {
		t.Fatal("interrupt missing after both completed")
	}
}

func TestPairedMinorIntervalUniform(t *testing.T) {
	cfg := Config{
		Paired: true, MeanInterval: 10, Window: 8, BufferDepth: 1,
		CountMode: CountInstructions, IntervalMode: IntervalGeometric, Seed: 9,
	}
	u := MustNewUnit(cfg)
	counts := make(map[uint64]int)
	for i := 0; i < 400000; i++ {
		tag := u.OnFetch(int64(i), uint64(4*i), true, true, 0, 12, 0)
		if tag != NoTag {
			u.Complete(tag, true, TrapNone, int64(i)+1)
		}
		if u.InterruptPending() {
			for _, s := range u.Drain() {
				if s.Paired {
					counts[s.FetchDistance]++
				}
			}
		}
	}
	if len(counts) != 8 {
		t.Fatalf("distances seen: %v", counts)
	}
	total := 0
	for d, c := range counts {
		if d < 1 || d > 8 {
			t.Fatalf("distance %d outside window", d)
		}
		total += c
	}
	for d, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.09 || frac > 0.16 {
			t.Errorf("distance %d has fraction %.3f, want ~0.125", d, frac)
		}
	}
}

func TestFlushInFlight(t *testing.T) {
	u := MustNewUnit(singleCfg(1))
	tag := u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	u.SetStage(tag, StageMap, 2)
	u.FlushInFlight(50)
	s := u.Drain()
	if len(s) != 1 {
		t.Fatalf("%d samples after flush", len(s))
	}
	if s[0].First.Trap != TrapNeverDone {
		t.Fatalf("trap = %v", s[0].First.Trap)
	}
}

func TestFlushPairedPendingSecond(t *testing.T) {
	cfg := Config{
		Paired: true, MeanInterval: 1, Window: 50, BufferDepth: 1,
		CountMode: CountInstructions, IntervalMode: IntervalFixed, Seed: 1,
	}
	u := MustNewUnit(cfg)
	tag := u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	u.Complete(tag, true, TrapNone, 3)
	// Second never selected; program ends.
	u.FlushInFlight(10)
	s := u.Drain()
	if len(s) != 1 || s[0].Paired {
		t.Fatalf("flush delivered %d samples, paired=%v", len(s), len(s) > 0 && s[0].Paired)
	}
}

func TestStaleTagIgnored(t *testing.T) {
	u := MustNewUnit(singleCfg(1))
	tag := u.OnFetch(0, 0x100, true, true, 0, 12, 0)
	u.Complete(tag, true, TrapNone, 1)
	drained := u.Drain()
	// Stale writes after completion+capture must be ignored.
	u.SetStage(tag, StageIssue, 99)
	u.Leave(tag, &Record{Events: EvDCacheMiss})
	u.Complete(tag, false, TrapReplay, 100)
	if drained[0].First.Events.Has(EvDCacheMiss) {
		t.Fatal("stale event write mutated captured sample")
	}
	u.SetStage(NoTag, StageIssue, 5) // must not panic
	u.SetStage(7, StageIssue, 5)     // out of range: ignored
}

func TestEventString(t *testing.T) {
	e := EvRetired | EvDCacheMiss
	s := e.String()
	if !strings.Contains(s, "retired") || !strings.Contains(s, "dcache-miss") {
		t.Fatalf("String = %q", s)
	}
	if Event(0).String() != "none" {
		t.Fatal("zero events")
	}
}

func TestTrapAndStageStrings(t *testing.T) {
	if TrapBadPath.String() != "bad-path" || TrapNone.String() != "none" {
		t.Fatal("trap names")
	}
	if StageFetch.String() != "fetch" || StageRetire.String() != "retire" {
		t.Fatal("stage names")
	}
}

func TestCountModeIntervalModeStrings(t *testing.T) {
	if CountInstructions.String() == "" || CountFetchOpportunities.String() == "" {
		t.Fatal("count mode names")
	}
	if IntervalGeometric.String() != "geometric" || IntervalFixed.String() != "fixed" ||
		IntervalUniform.String() != "uniform" {
		t.Fatal("interval mode names")
	}
}

func TestWaysValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paired = true
	cfg.Window = 0
	if _, err := NewUnit(cfg); err == nil {
		t.Fatal("paired without window accepted")
	}
	// Paired means two records per sample.
	cfg = DefaultConfig()
	cfg.Paired = true
	u := MustNewUnit(cfg)
	if u.Ways() != 2 {
		t.Fatalf("paired ways = %d", u.Ways())
	}
}

func TestPropertySampleConservation(t *testing.T) {
	// For random fetch/complete/abort patterns, every armed sample is
	// delivered exactly once: buffered + dropped == captures, and no
	// selection is lost once all live tags complete.
	f := func(seed uint64, paired bool) bool {
		r := stats.NewRNG(seed)
		cfg := Config{
			Paired: paired, MeanInterval: float64(r.IntRange(2, 20)),
			Window: r.IntRange(1, 10), BufferDepth: r.IntRange(1, 4),
			CountMode: CountInstructions, IntervalMode: IntervalGeometric, Seed: seed,
		}
		u := MustNewUnit(cfg)
		type flight struct{ tag int }
		var live []flight
		var delivered uint64
		for i := 0; i < 3000; i++ {
			cyc := int64(i)
			tag := u.OnFetch(cyc, uint64(0x100+4*(i%64)), true, true, 0, 12, 0)
			if tag != NoTag {
				live = append(live, flight{tag})
			}
			// Randomly complete one outstanding tag.
			if len(live) > 0 && r.Bool(0.4) {
				k := r.Intn(len(live))
				u.Complete(live[k].tag, r.Bool(0.7), TrapBadPath, cyc)
				live = append(live[:k], live[k+1:]...)
			}
			if u.InterruptPending() {
				delivered += uint64(len(u.Drain()))
			}
		}
		u.FlushInFlight(4000)
		delivered += uint64(len(u.Drain()))
		st := u.Stats()
		return delivered == st.SamplesBuffered &&
			st.SamplesBuffered+st.SamplesDropped <= st.Selected &&
			st.SamplesBuffered > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelectionRate(t *testing.T) {
	// The realized selection rate must track 1/MeanInterval for any
	// interval, in single mode where there is no pairing dead time
	// beyond the in-flight instruction (completed immediately here).
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		mean := float64(r.IntRange(5, 200))
		cfg := DefaultConfig()
		cfg.MeanInterval = mean
		cfg.Seed = seed
		u := MustNewUnit(cfg)
		const feedN = 60000
		selected := 0
		for i := 0; i < feedN; i++ {
			if tag := u.OnFetch(int64(i), uint64(4*i), true, true, 0, 12, 0); tag != NoTag {
				selected++
				u.Complete(tag, true, TrapNone, int64(i))
			}
		}
		want := float64(feedN) / mean
		return float64(selected) > want*0.8 && float64(selected) < want*1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
