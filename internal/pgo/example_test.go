package pgo

import (
	"context"
	"fmt"
	"log"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
)

// Example_prefetch closes the paper's §7 feedback loop: profile a program
// with ProfileMe, detect a miss-heavy strided load from its sampled
// effective addresses and memory latencies, insert prefetches ahead of
// it, and measure the rewritten program. strideKernel's loaded value
// feeds the next address, so every miss stalls the loop: the
// correlation-profiling case of Luk & Mowry that the paper cites.
func Example_prefetch() {
	prog := strideKernel(5000)
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
	cands := analyze(db, prog)
	fmt.Println("\nprefetch candidates (from sampled miss rates, latencies, addresses):")
	for _, c := range cands {
		fmt.Printf("  %-12s miss %5.1f%%  mem-lat %6.1f cycles  stride %d\n",
			prog.SymbolFor(c.PC), 100*c.MissRate, c.MeanLat, c.Stride)
	}

	// 3. Rewrite: prefetch 8 strides ahead of each strided candidate.
	re, err := insertPrefetches(prog, planPrefetches(cands, 8))
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
	// Output:
	// baseline: 491328 cycles (CPI 14.04)
	//
	// prefetch candidates (from sampled miss rates, latencies, addresses):
	//   main+0x8     miss 100.0%  mem-lat   96.0 cycles  stride 64
	//
	// optimized: 30872 cycles (CPI 0.77)
	// speedup: 15.92x — same architectural result, verified
}
