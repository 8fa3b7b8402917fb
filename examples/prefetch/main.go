// Prefetch: close the paper's §7 feedback loop — profile a program with
// ProfileMe, detect a miss-heavy strided load from its sampled effective
// addresses and memory latencies, insert prefetch instructions ahead of
// it, and measure the speedup of the rewritten program.
package main

import (
	"context"
	"fmt"
	"log"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/pgo"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
)

// The workload walks an index array: each 64-byte cell stores the offset
// of the next, so the loaded value feeds the next address and every cache
// miss stalls the loop — exactly the correlation-profiling case of Luk &
// Mowry that the paper cites.
func buildKernel(iters int) *isa.Program {
	b := asm.NewBuilder()
	b.Org(0x200000).DataLabel("arr")
	for i := 0; i < 8192; i++ {
		b.Word(64)
		b.Space(56)
	}
	b.Proc("main")
	b.LdI(1, int64(iters))
	b.LdaLabel(16, "arr")
	b.Label("loop")
	b.Ld(2, 16, 0)
	b.Add(16, 16, 2)
	b.OpI(isa.OpAnd, 16, 16, 0x27ffc0)
	b.OpI(isa.OpOr, 16, 16, 0x200000)
	b.Add(3, 3, 2)
	b.SubI(1, 1, 1)
	b.Bne(1, "loop")
	b.Ret().EndProc()
	return b.MustBuild()
}

func main() {
	prog := buildKernel(20000)
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0

	// 1. Profile, retaining sampled effective addresses per PC in a
	// database of our own, with the shard's (S, W, C): unpaired, so W = 0.
	ucfg := core.Config{
		MeanInterval: 40, Window: 80, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 6,
	}
	db := profile.NewDB(ucfg.MeanInterval, 0, ccfg.SustainedIssueWidth)
	db.RetainAddrs = 16
	sh, err := runner.RunShard(context.Background(), prog, ccfg, ucfg, nil, db.Handler())
	if err != nil {
		log.Fatal(err)
	}
	db.RecordLoss(sh.Stats.Lost())
	base := sh.Result
	fmt.Printf("baseline: %d cycles (CPI %.2f)\n", base.Cycles, base.CPI())

	// 2. Analyze: miss-heavy loads with detectable strides.
	cands := pgo.Analyze(db, prog)
	if len(cands) == 0 {
		log.Fatal("no prefetch candidates found")
	}
	fmt.Println("\nprefetch candidates (from sampled miss rates, latencies, addresses):")
	for _, c := range cands {
		fmt.Printf("  %-12s miss %5.1f%%  mem-lat %6.1f cycles  stride %d\n",
			prog.SymbolFor(c.PC), 100*c.MissRate, c.MeanLat, c.Stride)
	}

	// 3. Rewrite: prefetch 8 strides ahead of each strided candidate.
	re, err := pgo.InsertPrefetches(prog, pgo.PlanPrefetches(cands, 8))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Verify equivalence and measure.
	m1, m2 := sim.New(prog), sim.New(re)
	if _, err := m1.Run(0, nil); err != nil {
		log.Fatal(err)
	}
	if _, err := m2.Run(0, nil); err != nil {
		log.Fatal(err)
	}
	if m1.Reg(3) != m2.Reg(3) {
		log.Fatal("rewritten program computes a different result")
	}
	pipe, err := cpu.New(re, sim.NewMachineSource(sim.New(re), 0), ccfg)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := pipe.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized: %d cycles (CPI %.2f)\n", opt.Cycles, opt.CPI())
	fmt.Printf("speedup: %.2fx — same architectural result, verified\n",
		float64(base.Cycles)/float64(opt.Cycles))
}
