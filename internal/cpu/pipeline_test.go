package cpu

import (
	"testing"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/counters"
	"profileme/internal/isa"
	"profileme/internal/sim"
)

// runProgram assembles nothing: it takes an already-built program, runs the
// functional machine as the trace source and the pipeline on top, and
// returns the result.
func runProgram(t *testing.T, prog *isa.Program, cfg Config) (Result, *Pipeline) {
	t.Helper()
	p, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

func countedLoop(iters int, body string) *isa.Program {
	return asm.MustAssemble(`
.proc main
    lda r1, ` + itoa(iters) + `(zero)
loop:
` + body + `
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}

func TestRetireCountMatchesTrace(t *testing.T) {
	prog := countedLoop(1000, `
    add r2, r2, #1
    add r3, r3, #2
    xor r4, r2, r3`)
	recs, err := sim.Trace(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runProgram(t, prog, DefaultConfig())
	if res.Retired != uint64(len(recs)) {
		t.Fatalf("retired %d, trace has %d", res.Retired, len(recs))
	}
}

func TestIndependentALUReachesWideIPC(t *testing.T) {
	// A warm, line-aligned loop whose 16-instruction body exactly fills
	// four fetch blocks of one cache line, with the taken-branch bubble
	// disabled: fetch, map and issue all sustain the machine width of 4.
	cfg := DefaultConfig()
	cfg.TakenBranchBubble = 0
	b := asm.NewBuilder()
	b.Proc("main")
	b.LdI(1, 5000)
	for b.PC()%64 != 0 {
		b.Nop()
	}
	b.Label("loop")
	for i := 0; i < 14; i++ {
		b.AddI(isa.Reg(2+i), isa.Reg(2+i), 1)
	}
	b.SubI(1, 1, 1)
	b.Bne(1, "loop")
	b.Ret().EndProc()
	res, _ := runProgram(t, b.MustBuild(), cfg)
	if ipc := res.IPC(); ipc < 3.6 {
		t.Fatalf("IPC = %.2f, want close to 4", ipc)
	}

	// With the loop (taken branch each iteration) the fetch bubble bounds
	// IPC below the straight-line rate but it should still exceed 3.
	loop := countedLoop(3000, `
    add r2, r2, #1
    add r3, r3, #1
    add r4, r4, #1
    add r5, r5, #1
    add r6, r6, #1
    add r7, r7, #1
    add r8, r8, #1
    add r9, r9, #1
    add r10, r10, #1
    add r11, r11, #1
    add r12, r12, #1
    add r13, r13, #1
    add r14, r14, #1
    add r15, r15, #1`)
	// Unaligned loop with the default taken-branch bubble: alignment and
	// redirect overheads cost roughly a cycle per iteration.
	res2, _ := runProgram(t, loop, DefaultConfig())
	if ipc := res2.IPC(); ipc < 2.5 {
		t.Fatalf("loop IPC = %.2f, want > 2.5", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A single dependence chain of multiplies: ~1 mul per IntMul latency.
	prog := countedLoop(2000, `
    mul r2, r2, r3
    mul r2, r2, r3
    mul r2, r2, r3`)
	res, _ := runProgram(t, prog, DefaultConfig())
	// 3 muls/iteration, each 7 cycles, serialized: CPI >= ~4 overall.
	if cpi := res.CPI(); cpi < 3.5 {
		t.Fatalf("CPI = %.2f, dependence chain not serializing", cpi)
	}
}

func TestOutOfOrderBeatsInOrderOnMixedILP(t *testing.T) {
	// A long-latency divide followed by independent work: OoO hides the
	// divide, in-order stalls behind it.
	body := `
    fdiv r9, r8, r7
    add r2, r2, #1
    add r3, r3, #1
    add r4, r4, #1
    add r5, r5, #1
    add r6, r6, #1
    add r10, r10, #1
    add r11, r11, #1
    add r12, r12, #1`
	prog := countedLoop(2000, body)
	ooo, _ := runProgram(t, prog, DefaultConfig())
	ino, _ := runProgram(t, prog, InOrderConfig())
	if ooo.Cycles >= ino.Cycles {
		t.Fatalf("OoO %d cycles, in-order %d: out-of-order should win", ooo.Cycles, ino.Cycles)
	}
}

func TestMispredictsProduceWrongPathFetches(t *testing.T) {
	// A data-dependent unpredictable branch: r2 cycles through a pattern
	// derived from an LCG, so the direction is hard to predict.
	prog := asm.MustAssemble(`
.proc main
    lda r1, 3000(zero)
    lda r5, 12345(zero)
loop:
    mul r5, r5, #1103515245
    add r5, r5, #12345
    srl r6, r5, #16
    and r6, r6, #1
    beq r6, skip
    add r3, r3, #1
skip:
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	res, _ := runProgram(t, prog, DefaultConfig())
	if res.Mispredicts < 300 {
		t.Fatalf("only %d mispredicts on unpredictable branch", res.Mispredicts)
	}
	if res.FetchedOffPath == 0 {
		t.Fatal("no wrong-path instructions fetched")
	}
	if res.IssuedWasted == 0 {
		t.Fatal("no wrong-path instructions issued")
	}
}

func TestPredictableBranchFewMispredicts(t *testing.T) {
	prog := countedLoop(5000, "    add r2, r2, #1")
	res, _ := runProgram(t, prog, DefaultConfig())
	if res.Mispredicts > 60 {
		t.Fatalf("%d mispredicts on a counted loop", res.Mispredicts)
	}
}

func TestDCacheMissLatencyVisible(t *testing.T) {
	// Pointer-chase across > L1-size memory: every load misses; runtime
	// should be dominated by memory latency.
	hit := countedLoop(2000, "    ld r2, 0(r4)") // same address every time: hits
	resHit, _ := runProgram(t, hit, DefaultConfig())

	// Dependent misses: the next address depends on the loaded value
	// (which is always 0 in cold memory), so the chase serializes and
	// each load pays the full memory latency.
	miss := asm.MustAssemble(`
.proc main
    lda r1, 2000(zero)
    lda r4, 0x100000(zero)
loop:
    ld  r2, 0(r4)          ; loads 0; serializes the address chain
    add r4, r4, r2
    add r4, r4, #8192      ; new line and page every iteration
    and r4, r4, #0x3fffff
    or  r4, r4, #0x100000
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	resMiss, _ := runProgram(t, miss, DefaultConfig())
	if resMiss.Cycles < resHit.Cycles*3 {
		t.Fatalf("missing loads (%d cycles) not much slower than hitting (%d)", resMiss.Cycles, resHit.Cycles)
	}
}

func TestPerPCGroundTruth(t *testing.T) {
	prog := countedLoop(500, `
    add r2, r2, #1
    mul r3, r2, r2`)
	_, p := runProgram(t, prog, DefaultConfig())
	stats := p.PerPC()
	// The add at PC 4 (after the lda) executes 500 times.
	addStats := stats[1]
	if addStats.Retired != 500 {
		t.Fatalf("add retired %d times, want 500", addStats.Retired)
	}
	// The branch is taken 499 times.
	brStats := stats[4]
	if brStats.Taken != 499 {
		t.Fatalf("branch taken %d, want 499", brStats.Taken)
	}
	if addStats.LatInProgress <= 0 {
		t.Fatal("no latency accumulated")
	}
}

func TestReplayTrap(t *testing.T) {
	// A store whose address is computed through a long dependence chain,
	// followed immediately by a load to the same address with an
	// immediately-available address: the load issues first (out of
	// order), the store then completes and must replay the load.
	prog := asm.MustAssemble(`
.proc main
    lda r1, 400(zero)
    lda r10, 0x8000(zero)
loop:
    mul r5, r1, #8       ; long-latency address computation
    and r5, r5, #0xff8
    add r6, r10, r5
    st  r7, 0(r6)        ; store: address ready late
    ld  r8, 0x8000(r5)   ; load same address, ready immediately
    add r7, r8, #1
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	cfg := DefaultConfig()
	res, _ := runProgram(t, prog, cfg)
	if res.ReplayTraps == 0 {
		t.Fatal("no replay traps on store-load conflict")
	}

	cfg.ReplayTraps = false
	res2, _ := runProgram(t, prog, cfg)
	if res2.ReplayTraps != 0 {
		t.Fatal("replay traps despite being disabled")
	}
}

func TestCallReturnPipelined(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    lda r1, 1000(zero)
loop:
    jsr ra, callee
    sub r1, r1, #1
    bne r1, loop
    ret (r20)
.endp
.proc callee
    add r2, r2, #1
    ret (ra)
.endp`)
	res, p := runProgram(t, prog, DefaultConfig())
	recs, _ := sim.Trace(prog, 0)
	if res.Retired != uint64(len(recs)) {
		t.Fatalf("retired %d != trace %d", res.Retired, len(recs))
	}
	// The RAS should make returns nearly perfectly predicted.
	lookups, mispred := p.Predictor().Accuracy()
	if lookups == 0 {
		t.Fatal("no control instructions resolved")
	}
	if float64(mispred)/float64(lookups) > 0.05 {
		t.Fatalf("%d/%d control mispredicts with a RAS", mispred, lookups)
	}
}

func TestProfileMeSamplesMatchGroundTruth(t *testing.T) {
	prog := countedLoop(20000, `
    add r2, r2, #1
    add r3, r3, r2
    xor r4, r3, r2`)
	src := sim.NewMachineSource(sim.New(prog), 0)
	cfg := DefaultConfig()
	cfg.InterruptCost = 0 // keep timing undisturbed for this check
	p, err := New(prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = 50
	unit := core.MustNewUnit(ucfg)
	var samples []core.Sample
	p.AttachProfileMe(unit, func(s []core.Sample) { samples = append(samples, s...) })
	res, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	if len(samples) < 500 {
		t.Fatalf("only %d samples", len(samples))
	}
	// Sampled retире fraction should approximate the true fraction of
	// fetched-on-path instructions that retire.
	var retired int
	perPC := map[uint64]int{}
	for _, s := range samples {
		if s.First.Retired() {
			retired++
		}
		perPC[s.First.PC]++
	}
	trueFrac := float64(res.Retired) / float64(res.FetchedOnPath)
	gotFrac := float64(retired) / float64(len(samples))
	if gotFrac < trueFrac-0.1 || gotFrac > trueFrac+0.1 {
		t.Fatalf("sampled retire fraction %.3f vs true %.3f", gotFrac, trueFrac)
	}
	// Loop-body PCs should dominate the samples.
	if len(perPC) < 4 {
		t.Fatalf("samples cover only %d PCs", len(perPC))
	}
	// Stage timestamps must be monotonically ordered for retired samples.
	for _, s := range samples {
		r := s.First
		if !r.Retired() {
			continue
		}
		prev := int64(-1)
		for st := core.StageFetch; st < core.NumStages; st++ {
			c := r.StageCycle[st]
			if c < 0 {
				t.Fatalf("retired sample at %#x missing stage %v", r.PC, st)
			}
			if c < prev {
				t.Fatalf("stage %v at %d before previous %d", st, c, prev)
			}
			prev = c
		}
	}
}

func TestProfileMeSeesAbortedInstructions(t *testing.T) {
	// Unpredictable branches produce wrong-path fetches; with
	// fetch-opportunity counting the sampler must capture some aborted,
	// off-path instructions.
	prog := asm.MustAssemble(`
.proc main
    lda r1, 30000(zero)
    lda r5, 98765(zero)
loop:
    mul r5, r5, #6364136223846793005
    add r5, r5, #1442695040888963407
    srl r6, r5, #32
    and r6, r6, #1
    beq r6, skip
    add r3, r3, #1
    add r4, r4, #1
skip:
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	src := sim.NewMachineSource(sim.New(prog), 0)
	cfg := DefaultConfig()
	p, err := New(prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = 40
	ucfg.CountMode = core.CountFetchOpportunities
	unit := core.MustNewUnit(ucfg)
	var aborted, offPath, total int
	p.AttachProfileMe(unit, func(ss []core.Sample) {
		for _, s := range ss {
			total++
			if !s.First.Retired() {
				aborted++
			}
			if s.First.Events.Has(core.EvOffPath) {
				offPath++
			}
		}
	})
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if total < 1000 {
		t.Fatalf("only %d samples", total)
	}
	if aborted == 0 {
		t.Fatal("no aborted instructions sampled")
	}
	if offPath == 0 {
		t.Fatal("no off-path instructions sampled")
	}
}

func TestEventCounterAggregates(t *testing.T) {
	prog := countedLoop(1000, `
    ld r2, 0(r10)
    st r2, 8(r10)`)
	src := sim.NewMachineSource(sim.New(prog), 0)
	p, err := New(prog, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctr := counters.New(counters.Config{}, nil)
	p.AttachCounters(ctr)
	res, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Count(counters.EventRetired) != res.Retired {
		t.Fatalf("counter retired %d != %d", ctr.Count(counters.EventRetired), res.Retired)
	}
	// 2 memory references per iteration, plus wrong-path pollution.
	if refs := ctr.Count(counters.EventDCacheRef); refs < 2000 {
		t.Fatalf("dcache refs = %d, want >= 2000", refs)
	}
}

func TestInterruptCostSlowsRun(t *testing.T) {
	prog := countedLoop(20000, "    add r2, r2, #1")
	run := func(cost int, interval float64) Result {
		src := sim.NewMachineSource(sim.New(prog), 0)
		cfg := DefaultConfig()
		cfg.InterruptCost = cost
		p, err := New(prog, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unit := core.MustNewUnit(core.Config{
			MeanInterval: interval, BufferDepth: 1, Window: 80,
			CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 5,
		})
		p.AttachProfileMe(unit, func([]core.Sample) {})
		res, err := p.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cheap := run(0, 100)
	costly := run(200, 100)
	if costly.Cycles <= cheap.Cycles {
		t.Fatalf("interrupt cost had no effect: %d vs %d", cheap.Cycles, costly.Cycles)
	}
	if costly.Interrupts == 0 || costly.InterruptStall == 0 {
		t.Fatalf("interrupts not accounted: %+v", costly)
	}
}

func TestWastedSlotsGroundTruth(t *testing.T) {
	// Serial pointer-ish chain: almost everything is wasted. Parallel
	// independent adds: much less waste per instruction.
	serial := countedLoop(2000, `
    mul r2, r2, #3
    mul r2, r2, #5
    mul r2, r2, #7`)
	cfg := DefaultConfig()
	cfg.TrackWastedSlots = true
	_, p := runProgram(t, serial, cfg)
	stats := p.PerPC()
	var wasted, useful int64
	for _, s := range stats {
		wasted += s.WastedSlots
		useful += s.UsefulSlots
	}
	if wasted == 0 {
		t.Fatal("no wasted slots measured on a serial chain")
	}
	if useful == 0 {
		t.Fatal("no useful overlap measured at all")
	}
	if wasted < useful {
		t.Fatalf("serial chain should waste more than it uses: wasted=%d useful=%d", wasted, useful)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 1
	prog := countedLoop(1, "    nop")
	if _, err := New(prog, sim.NewSliceSource(nil), bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCycleLimit(t *testing.T) {
	prog := countedLoop(1000000, "    add r2, r2, #1")
	src := sim.NewMachineSource(sim.New(prog), 0)
	p, err := New(prog, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(100)
	if err == nil {
		t.Fatal("cycle limit not reported")
	}
}

func TestEmptyProgram(t *testing.T) {
	prog := asm.MustAssemble(".proc main\n ret\n.endp")
	res, _ := runProgram(t, prog, DefaultConfig())
	if res.Retired != 1 {
		t.Fatalf("retired = %d", res.Retired)
	}
}

func TestICacheMissEventOnLargeCode(t *testing.T) {
	// A program bigger than the I-cache footprint in a loop would need
	// >64KB of code; instead shrink the I-cache.
	cfg := DefaultConfig()
	cfg.Mem.ICache.SizeBytes = 512
	cfg.Mem.ICache.Assoc = 1

	// Two procedures exactly one cache-capacity apart (512 B) conflict in
	// every set of the direct-mapped cache; calling them alternately
	// thrashes it. Built with the Builder so the padding is precise.
	b := asm.NewBuilder()
	b.Proc("main").
		Op3(isa.OpAdd, 20, isa.RegRA, isa.RegZero).
		LdI(1, 300).
		Label("loop").
		Jsr("far1").
		Jsr("far2").
		SubI(1, 1, 1).
		Bne(1, "loop").
		Emit(isa.Inst{Op: isa.OpRet, Rb: 20}).
		EndProc()
	b.Proc("far1")
	for i := 0; i < 8; i++ {
		b.AddI(2, 2, 1)
	}
	b.Ret().EndProc()
	for b.PC() < 512+4*isa.InstBytes { // push far2 one cache capacity past far1
		b.Nop()
	}
	b.Proc("far2")
	for i := 0; i < 8; i++ {
		b.AddI(3, 3, 1)
	}
	b.Ret().EndProc()
	prog := b.MustBuild()
	_, p := runProgram(t, prog, cfg)
	icache := p.Hierarchy().ICache()
	if _, misses := icache.Stats(); misses < 10 {
		t.Fatalf("icache misses = %d", misses)
	}
}
