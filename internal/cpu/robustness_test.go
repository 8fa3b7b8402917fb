package cpu

import (
	"errors"
	"testing"
	"testing/quick"

	"profileme/internal/core"
	"profileme/internal/isa"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// sweepConfigs returns deliberately stressful machine shapes: tiny buffers,
// narrow widths, single units — the invariant (pipeline retires exactly
// the functional instruction stream) must hold on all of them.
func sweepConfigs() map[string]Config {
	tiny := DefaultConfig()
	tiny.ROBSize = 8
	tiny.IQInt, tiny.IQFP = 3, 2
	tiny.FetchBuf = 4
	tiny.PhysRegs = isa.NumRegs + 8

	narrow := DefaultConfig()
	narrow.FetchWidth, narrow.MapWidth, narrow.RetireWidth = 1, 1, 1
	narrow.FetchBuf = 2
	narrow.IntUnits, narrow.MemPorts, narrow.FPUnits = 1, 1, 1
	narrow.SustainedIssueWidth = 1

	slowmem := DefaultConfig()
	slowmem.Mem.MemLatency = 300
	slowmem.Mem.DCache.SizeBytes = 1 << 10
	slowmem.Mem.DCache.Assoc = 1
	slowmem.Mem.ICache.SizeBytes = 1 << 10
	slowmem.Mem.ICache.Assoc = 1

	badpred := DefaultConfig()
	badpred.Bpred.HistoryBits = 1
	badpred.Bpred.TableBits = 2
	badpred.Bpred.BTBEntries = 2
	badpred.Bpred.RASEntries = 1
	badpred.MispredictPenalty = 20

	noreplay := DefaultConfig()
	noreplay.ReplayTraps = false

	inorder := InOrderConfig()

	return map[string]Config{
		"tiny": tiny, "narrow": narrow, "slowmem": slowmem,
		"badpred": badpred, "noreplay": noreplay, "inorder": inorder,
	}
}

func TestConfigSweepRetiresExactly(t *testing.T) {
	progs := map[string]*isa.Program{
		"gen13":    workload.Generate(workload.GenConfig{Procs: 4, BodyBlocks: 4, MainIters: 80, Seed: 13}),
		"gen99":    workload.Generate(workload.GenConfig{Procs: 3, BodyBlocks: 6, MainIters: 60, Seed: 99}),
		"compress": workload.Compress(15000),
		"perl":     workload.Perl(15000),
	}
	for progName, prog := range progs {
		want, err := sim.New(prog).Run(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cfgName, cfg := range sweepConfigs() {
			src := sim.NewMachineSource(sim.New(prog), 0)
			p, err := New(prog, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", progName, cfgName, err)
			}
			res, err := p.Run(20_000_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", progName, cfgName, err)
			}
			if res.Retired != want {
				t.Errorf("%s/%s: retired %d, functional %d", progName, cfgName, res.Retired, want)
			}
		}
	}
}

func TestConfigSweepWithSampling(t *testing.T) {
	// Sampling hardware attached under stressful configs: still exact
	// retirement, and every retired sample's timestamps stay ordered.
	prog := workload.Generate(workload.GenConfig{Procs: 4, BodyBlocks: 5, MainIters: 100, Seed: 5})
	want, err := sim.New(prog).Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, cfg := range sweepConfigs() {
		cfg.InterruptCost = 7
		unit := core.MustNewUnit(core.Config{
			Paired: true, MeanInterval: 30, Window: 60, BufferDepth: 3,
			CountMode: core.CountFetchOpportunities, IntervalMode: core.IntervalGeometric, Seed: 2,
		})
		var bad int
		src := sim.NewMachineSource(sim.New(prog), 0)
		p, err := New(prog, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.AttachProfileMe(unit, func(ss []core.Sample) {
			for _, s := range ss {
				recs := []core.Record{s.First}
				if s.Paired {
					recs = append(recs, s.Second)
				}
				for _, r := range recs {
					if !r.Retired() {
						continue
					}
					prev := int64(-1)
					for st := core.StageFetch; st < core.NumStages; st++ {
						c := r.StageCycle[st]
						if c < prev {
							bad++
						}
						if c >= 0 {
							prev = c
						}
					}
				}
			}
		})
		res, err := p.Run(20_000_000)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		if res.Retired != want {
			t.Errorf("%s: retired %d, functional %d", cfgName, res.Retired, want)
		}
		if bad != 0 {
			t.Errorf("%s: %d samples with disordered stage timestamps", cfgName, bad)
		}
	}
}

func TestRenamerProperty(t *testing.T) {
	// Random allocate/retire/squash sequences must preserve: no physical
	// register simultaneously free and mapped, free count conservation,
	// and map-table consistency after undo.
	type op struct {
		Kind byte
		Reg  uint8
	}
	f := func(ops []op) bool {
		const phys = 48
		r := newRenamer(phys)
		type alloc struct {
			arch       isa.Reg
			newP, oldP pregID
		}
		var live []alloc // allocation stack (program order)
		for _, o := range ops {
			arch := isa.Reg(o.Reg % (isa.NumRegs - 1)) // skip RegZero
			switch o.Kind % 3 {
			case 0: // allocate (map a new instruction)
				if r.freeCount() == 0 {
					continue
				}
				newP, oldP := r.allocate(arch)
				if newP == noPreg {
					return false
				}
				live = append(live, alloc{arch, newP, oldP})
			case 1: // retire oldest
				if len(live) == 0 {
					continue
				}
				a := live[0]
				live = live[1:]
				r.release(a.oldP)
			case 2: // squash youngest
				if len(live) == 0 {
					continue
				}
				a := live[len(live)-1]
				live = live[:len(live)-1]
				r.undo(a.arch, a.newP, a.oldP)
			}
		}
		// Conservation: free + live allocations + initial arch mappings
		// cover all physical registers exactly once.
		seen := make(map[pregID]int)
		for _, p := range r.free {
			seen[p]++
		}
		for _, a := range live {
			seen[a.newP]++
		}
		// Live "oldP" chains: each live allocation's oldP is either an
		// older live allocation's newP or an original mapping; original
		// mappings and current map table round out the count. The
		// simplest sound check: no duplicate in free, and free+distinct
		// live newP <= phys.
		for p, n := range seen {
			if n > 1 || p == noPreg {
				return false
			}
		}
		// Map table entries must never point at a freed register.
		freeSet := make(map[pregID]bool, len(r.free))
		for _, p := range r.free {
			freeSet[p] = true
		}
		for a := isa.Reg(0); a < isa.NumRegs; a++ {
			if freeSet[r.lookup(a)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRenamerGenerationGuard(t *testing.T) {
	r := newRenamer(40)
	p1, old1 := r.allocate(3)
	g1 := r.generation(p1)
	// Free p1 (squash) and reallocate: generation must change.
	r.undo(3, p1, old1)
	p2, _ := r.allocate(7)
	if p2 != p1 {
		// allocation is LIFO off the free list, so we expect reuse
		t.Fatalf("expected register reuse, got %d vs %d", p2, p1)
	}
	if r.generation(p2) == g1 {
		t.Fatal("generation not bumped on reallocation")
	}
	// A stale wakeup must not mark the new incarnation ready.
	r.markReadyIfCurrent(p1, g1, 100)
	if r.isReady(p2) {
		t.Fatal("stale wakeup leaked through generation guard")
	}
	r.markReadyIfCurrent(p2, r.generation(p2), 101)
	if !r.isReady(p2) {
		t.Fatal("current wakeup rejected")
	}
}

func TestTraceWindow(t *testing.T) {
	recs := make([]sim.Record, 20)
	for i := range recs {
		recs[i] = sim.Record{Seq: uint64(i), PC: uint64(i) * 4}
	}
	w := newTraceWindow(sim.NewSliceSource(recs))

	r, ok := w.at(0)
	if !ok || r.Seq != 0 {
		t.Fatal("at(0)")
	}
	r, ok = w.at(7)
	if !ok || r.Seq != 7 {
		t.Fatal("at(7)")
	}
	// Rewind within the window.
	r, ok = w.at(3)
	if !ok || r.Seq != 3 {
		t.Fatal("rewind")
	}
	w.trim(5)
	if len(w.buf)-w.head != 3 { // seqs 5, 6, 7
		t.Fatalf("buffered = %d", len(w.buf)-w.head)
	}
	if _, ok := w.at(19); !ok {
		t.Fatal("at(19)")
	}
	if _, ok := w.at(20); ok {
		t.Fatal("past end")
	}
	w.trim(100)
	if len(w.buf)-w.head != 0 {
		t.Fatal("trim past end")
	}
	// Rewinding below the trimmed base is a simulator bug: must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on rewind below base")
		}
	}()
	w.at(4)
}

func TestInOrderNeverReordersIssue(t *testing.T) {
	// In the in-order configuration, issue cycles must be monotone in
	// program order for on-path instructions.
	prog := workload.Generate(workload.GenConfig{Procs: 3, BodyBlocks: 4, MainIters: 40, Seed: 21})
	src := sim.NewMachineSource(sim.New(prog), 0)
	cfg := InOrderConfig()
	p, err := New(prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unit := core.MustNewUnit(core.Config{
		Paired: true, MeanInterval: 10, Window: 20, BufferDepth: 4,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 3,
	})
	violations := 0
	p.AttachProfileMe(unit, func(ss []core.Sample) {
		for _, s := range ss {
			if !s.Paired || !s.First.Retired() || !s.Second.Retired() {
				continue
			}
			i1, i2 := s.First.StageCycle[core.StageIssue], s.Second.StageCycle[core.StageIssue]
			if i1 >= 0 && i2 >= 0 && i2 < i1 {
				violations++
			}
		}
	})
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d issue-order violations on the in-order machine", violations)
	}
}

func TestUninterruptibleRegionDefersCounters(t *testing.T) {
	prog := workload.Compress(20000)
	cfg := DefaultConfig()
	// Mark the whole program uninterruptible: nothing may be delivered
	// until the drain.
	cfg.UninterruptibleStart, cfg.UninterruptibleEnd = 0, prog.MaxPC()
	unit := core.MustNewUnit(core.Config{
		MeanInterval: 100, BufferDepth: 1, Window: 80,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 1,
	})
	delivered := 0
	src := sim.NewMachineSource(sim.New(prog), 0)
	p, err := New(prog, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachProfileMe(unit, func(ss []core.Sample) { delivered += len(ss) })
	res, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Samples were dropped at the full buffer; only the final drain (when
	// the pipeline empties and the attribution PC leaves the image) plus
	// at most a couple of boundary deliveries get through.
	if res.Interrupts > 3 {
		t.Fatalf("%d interrupts delivered inside an uninterruptible program", res.Interrupts)
	}
	if unit.Stats().SamplesDropped == 0 {
		t.Fatal("expected dropped samples while interrupts were deferred")
	}
	_ = delivered
}

func TestPrefetchSemantics(t *testing.T) {
	// A prefetch warms the cache for a later load, does not block
	// retirement on the miss, and triggers no replay traps.
	prog := workload.Generate(workload.GenConfig{Procs: 1, BodyBlocks: 1, MainIters: 1, Seed: 1})
	_ = prog
	src := `
.proc main
    lda  r4, 0x300000(zero)
    pref 0(r4)
    lda  r1, 400(zero)
spin:
    add  r2, r2, #1       ; enough work for the prefetch to land
    sub  r1, r1, #1
    bne  r1, spin
    ld   r3, 0(r4)        ; should now hit
    st   r3, 0(r4)        ; same address: no replay against the pref
    ret
.endp`
	p := mustPipeline(t, src, DefaultConfig())
	res, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayTraps != 0 {
		t.Fatalf("prefetch triggered %d replay traps", res.ReplayTraps)
	}
	stats := p.PerPC()
	var prefMiss, loadMiss uint64
	for _, st := range stats {
		in, _ := p.prog.At(st.PC)
		switch in.Op {
		case isa.OpPref:
			prefMiss = st.DCacheMiss
		case isa.OpLd:
			loadMiss = st.DCacheMiss
		}
	}
	_ = prefMiss // the pref takes the miss...
	if loadMiss != 0 {
		t.Fatalf("load missed despite the prefetch (misses=%d)", loadMiss)
	}
}

// mustPipeline assembles src and builds a pipeline over it.
func mustPipeline(t *testing.T, src string, cfg Config) *Pipeline {
	t.Helper()
	prog, err := asmAssemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewMachineSource(sim.New(prog), 0)
	p, err := New(prog, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSourceErrorDrains(t *testing.T) {
	// A program that runs off the image ends the trace stream with an
	// error; the pipeline must drain what it has, stop, and say so.
	prog, err := asmAssemble(".proc main\n add r2, r2, #1\n nop\n.endp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(100000)
	if !errors.Is(err, sim.ErrNoInst) {
		t.Fatalf("Run over a runaway PC returned %v, want sim.ErrNoInst wrapped", err)
	}
	if res.Retired != 2 {
		t.Fatalf("retired %d of the 2 valid instructions", res.Retired)
	}
}

func TestRunForAndFinishMatchRun(t *testing.T) {
	prog := workload.Compress(30000)
	// Reference: one continuous run.
	src1 := sim.NewMachineSource(sim.New(prog), 0)
	p1, err := New(prog, src1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p1.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Sliced: many small quanta must yield the identical result.
	src2 := sim.NewMachineSource(sim.New(prog), 0)
	p2, err := New(prog, src2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for !p2.RunFor(137) {
	}
	got := p2.Finish()
	if got.Cycles != ref.Cycles || got.Retired != ref.Retired ||
		got.Mispredicts != ref.Mispredicts || got.FetchedOffPath != ref.FetchedOffPath {
		t.Fatalf("sliced run diverged: %+v vs %+v", got, ref)
	}
}

func TestDeferredLoadSampleAtEndOfRun(t *testing.T) {
	// Loads with no consumers retire before their values land; samples on
	// them must still deliver as retired with the memory latency filled
	// in — including the final loads, whose values are still in flight
	// when the run ends (the finish-time drain). No sample may be
	// mislabeled TrapNeverDone.
	src := `
.proc main
    lda  r1, 60(zero)
    lda  r4, 0x300000(zero)
loop:
    ld   r2, 0(r4)
    add  r4, r4, #8192
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`
	prog, err := asmAssemble(src)
	if err != nil {
		t.Fatal(err)
	}
	unit := core.MustNewUnit(core.Config{
		MeanInterval: 3, BufferDepth: 64, Window: 80,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 2,
	})
	var loadSamples, withMemLat, neverDone int
	s := sim.NewMachineSource(sim.New(prog), 0)
	cfg := DefaultConfig()
	cfg.InterruptCost = 0
	p, err := New(prog, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachProfileMe(unit, func(ss []core.Sample) {
		for _, smp := range ss {
			r := smp.First
			if r.Trap == core.TrapNeverDone {
				neverDone++
			}
			if in, ok := prog.At(r.PC); !ok || in.Op != isa.OpLd || !r.Retired() {
				continue
			}
			loadSamples++
			if lat, ok := r.MemLatency(); ok && lat >= 50 {
				withMemLat++
			}
		}
	})
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if loadSamples == 0 {
		t.Fatal("no retired load samples")
	}
	if withMemLat == 0 {
		t.Fatal("no load sample carries its memory latency")
	}
	if neverDone != 0 {
		t.Fatalf("%d samples mislabeled never-done in a fully retiring program", neverDone)
	}
}
