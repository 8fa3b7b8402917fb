package pgo

import (
	"context"
	"testing"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

func TestDetectStride(t *testing.T) {
	cases := []struct {
		name  string
		addrs []uint64
		want  int64
	}{
		{"sequential", []uint64{0x1000, 0x1040, 0x1080, 0x1100, 0x1240}, 64},
		{"skipping multiples", []uint64{0x1000, 0x1200, 0x1280, 0x1500}, 128},
		{"too few", []uint64{0x1000, 0x1040}, 0},
		{"pointer chase", []uint64{0x1000, 0x5728, 0x2340, 0x99d0}, 8}, // aligned but irregular: still a stride of the GCD
		{"irregular", []uint64{0x1000, 0x1003, 0x100b, 0x1010}, 0},
		{"constant", []uint64{0x1000, 0x1000, 0x1000}, 0},
		{"descending mix", []uint64{0x2000, 0x1f00, 0x2100, 0x1e00}, 256},
	}
	for _, c := range cases {
		if got := detectStride(c.addrs); got != c.want {
			t.Errorf("%s: stride = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestInsertPrefetchesRelocation(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    lda  r1, 50(zero)
    lda  r16, table(zero)
loop:
    ld   r2, 0(r16)
    add  r3, r3, r2
    beq  r2, skip
    add  r4, r4, #1
skip:
    add  r16, r16, #8
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x20000
table:
`)
	for i := uint64(0); i < 64; i++ {
		prog.Data[0x20000+i*8] = i % 3
	}
	loadPC := uint64(2) * isa.InstBytes

	re, err := insertPrefetches(prog, []plan{{LoadPC: loadPC, Ahead: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != prog.Len()+1 {
		t.Fatalf("len = %d, want %d", re.Len(), prog.Len()+1)
	}
	// The prefetch sits where the load was; the load follows.
	pref, _ := re.At(loadPC)
	if pref.Op != isa.OpPref || pref.Imm != 128 || pref.Rb != 16 {
		t.Fatalf("pref = %v", pref)
	}
	ld, _ := re.At(loadPC + isa.InstBytes)
	if ld.Op != isa.OpLd {
		t.Fatalf("load displaced wrongly: %v", ld)
	}
	// Architectural results must be identical.
	m1, m2 := sim.New(prog), sim.New(re)
	if _, err := m1.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range []isa.Reg{3, 4, 16} {
		if m1.Reg(r) != m2.Reg(r) {
			t.Fatalf("r%d differs: %d vs %d", r, m1.Reg(r), m2.Reg(r))
		}
	}
	// Labels and procs relocated consistently.
	lp, _ := re.Label("loop")
	if in, _ := re.At(lp); in.Op != isa.OpPref {
		t.Fatalf("loop label not pointing at relocated block head: %v", in)
	}
	if pr := re.ProcByName("main"); pr == nil || pr.End != re.MaxPC() {
		t.Fatalf("proc range: %+v", re.ProcByName("main"))
	}
}

func TestInsertPrefetchesFuzzEquivalence(t *testing.T) {
	// Generated programs (no indirect jumps): inserting a prefetch before
	// every load must leave architectural behaviour unchanged.
	for seed := uint64(300); seed < 308; seed++ {
		cfg := workload.GenConfig{Procs: 3, BodyBlocks: 5, MainIters: 40, Seed: seed}
		prog := workload.Generate(cfg)
		var plans []plan
		for i, in := range prog.Insts {
			if in.Op == isa.OpLd {
				plans = append(plans, plan{LoadPC: uint64(i) * isa.InstBytes, Ahead: 64})
			}
		}
		if len(plans) == 0 {
			continue
		}
		re, err := insertPrefetches(prog, plans)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m1, m2 := sim.New(prog), sim.New(re)
		n1, err := m1.Run(5_000_000, nil)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := m2.Run(5_000_000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n2 != n1+countExecutedPrefs(re) {
			t.Fatalf("seed %d: instruction counts inconsistent: %d vs %d", seed, n1, n2)
		}
		for r := isa.Reg(1); r < 28; r++ {
			if m1.Reg(r) != m2.Reg(r) {
				t.Fatalf("seed %d: r%d differs", seed, r)
			}
		}
		// The rewritten program must also run exactly on the pipeline.
		src := sim.NewMachineSource(sim.New(re), 0)
		p, err := cpu.New(re, src, cpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retired != n2 {
			t.Fatalf("seed %d: pipeline retired %d, functional %d", seed, res.Retired, n2)
		}
	}
}

func countExecutedPrefs(p *isa.Program) uint64 {
	m := sim.New(p)
	var n uint64
	_, _ = m.Run(5_000_000, func(r sim.Record) {
		if r.Inst.Op == isa.OpPref {
			n++
		}
	})
	return n
}

func TestInsertPrefetchesRejectsIndirect(t *testing.T) {
	prog := workload.Perl(5000) // has jump tables
	var loadPC uint64
	for i, in := range prog.Insts {
		if in.Op == isa.OpLd {
			loadPC = uint64(i) * isa.InstBytes
			break
		}
	}
	if _, err := insertPrefetches(prog, []plan{{LoadPC: loadPC}}); err == nil {
		t.Fatal("indirect-jump program accepted")
	}
}

func TestInsertPrefetchesRejectsNonLoad(t *testing.T) {
	prog := asm.MustAssemble(".proc main\n add r1, r1, #1\n ret\n.endp")
	if _, err := insertPrefetches(prog, []plan{{LoadPC: 0}}); err == nil {
		t.Fatal("non-load plan accepted")
	}
}

// strideKernel is the end-to-end PGO target: a value-carried strided walk
// (the loaded value supplies the stride, as in an index array), so misses
// serialize and prefetching genuinely hides them.
func strideKernel(iters int) *isa.Program {
	b := asm.NewBuilder()
	b.Org(0x200000).DataLabel("arr")
	const cells = 8192 // 8192 * 64B = 512 KB: far beyond L1, most of L2
	for i := 0; i < cells; i++ {
		b.Word(64) // each cell holds the stride to the next
		b.Space(56)
	}
	b.Proc("main")
	b.LdI(1, int64(iters))
	b.LdaLabel(16, "arr")
	b.Label("loop")
	b.Ld(2, 16, 0)   // serializing: value feeds the address
	b.Add(16, 16, 2) // advance by the loaded stride
	b.OpI(isa.OpAnd, 16, 16, 0x27ffc0)
	b.OpI(isa.OpOr, 16, 16, 0x200000)
	b.Add(3, 3, 2)
	b.SubI(1, 1, 1)
	b.Bne(1, "loop")
	b.Ret().EndProc()
	return b.MustBuild()
}

func TestEndToEndPrefetchSpeedup(t *testing.T) {
	const iters = 12000
	prog := strideKernel(iters)
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0

	// 1. Profile the baseline.
	ucfg := core.Config{
		MeanInterval: 40, Window: 80, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 6,
	}
	db := profile.NewDB(ucfg.MeanInterval, 0, ccfg.SustainedIssueWidth)
	db.RetainAddrs = 16
	sh, err := runner.RunShard(context.Background(), prog, ccfg, ucfg, nil, db.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := sh.Result

	// 2. Analyze: the strided load must surface as the top candidate.
	cands := analyze(db, prog)
	if len(cands) == 0 {
		t.Fatal("no candidates found")
	}
	top := cands[0]
	if top.Stride != 64 {
		t.Fatalf("detected stride %d, want 64", top.Stride)
	}
	if top.MissRate < 0.5 {
		t.Fatalf("miss rate %.2f, expected miss-heavy", top.MissRate)
	}

	// 3. Transform and re-run.
	re, err := insertPrefetches(prog, planPrefetches(cands, 8))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cpu.New(re, sim.NewMachineSource(sim.New(re), 0), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := pipe.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	// Architectural result must be preserved.
	m1, m2 := sim.New(prog), sim.New(re)
	m1.Run(0, nil)
	m2.Run(0, nil)
	if m1.Reg(3) != m2.Reg(3) {
		t.Fatalf("transformed program computes a different sum")
	}

	speedup := float64(base.Cycles) / float64(opt.Cycles)
	if speedup < 1.5 {
		t.Fatalf("speedup %.2fx (baseline %d cycles, optimized %d)", speedup, base.Cycles, opt.Cycles)
	}
	t.Logf("prefetch speedup: %.2fx (%d -> %d cycles)", speedup, base.Cycles, opt.Cycles)
}
