package profile_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// ExampleDB_WastedSlots uses paired sampling to find where issue slots go
// to waste, and shows that ranking instructions by latency alone names
// the wrong loop: the paper's core argument (§6, Figure 7). The program
// has a serial multiply chain (loop A), a cache-resident pointer chase
// (loop B) and a high-ILP loop (loop C) that runs the most iterations.
func ExampleDB_WastedSlots() {
	prog := workload.Figure7Program(2000)
	loops := workload.Figure7Loops(prog)

	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	sh, err := runner.RunShard(context.Background(), prog, ccfg, core.Config{
		Paired:       true,
		MeanInterval: 40,
		Window:       80,
		BufferDepth:  64,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         3,
	}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	var db *profile.DB = sh.DB // spelled out: the type this example documents
	res := sh.Result
	db.Realize(res.FetchedOnPath) // scale by the realized interval

	// One row of estimated totals per well-sampled instruction of a loop.
	type row struct {
		pc                      uint64
		loop                    string
		latency, wasted, useful float64
	}
	var rows []row
	for _, pc := range db.PCs() {
		if acc := db.Get(pc); acc == nil || acc.Samples < 20 {
			continue
		}
		loop := ""
		for name, rng := range loops {
			if pc >= rng[0] && pc < rng[1] {
				loop = name
			}
		}
		if loop == "" {
			continue
		}
		wasted, total, useful, ok := db.WastedSlots(pc)
		if !ok {
			continue
		}
		rows = append(rows, row{pc, loop, total / float64(ccfg.SustainedIssueWidth), wasted, useful})
	}
	top := func(title string, key func(row) float64) row {
		sort.Slice(rows, func(i, j int) bool { return key(rows[i]) > key(rows[j]) })
		fmt.Printf("%s:\n", title)
		fmt.Printf("  %-12s %-12s %14s %14s %14s\n", "loop", "pc", "est.latency", "est.wasted", "est.useful")
		for _, r := range rows[:5] {
			fmt.Printf("  %-12s %-12s %14.0f %14.0f %14.0f\n",
				r.loop, prog.SymbolFor(r.pc), r.latency, r.wasted, r.useful)
		}
		return rows[0]
	}

	fmt.Printf("run: %d instructions, %d cycles, %d paired samples\n\n",
		res.Retired, res.Cycles, db.Pairs())
	byLatency := top("top 5 by TOTAL LATENCY (the naive bottleneck ranking)", func(r row) float64 { return r.latency })
	fmt.Println()
	byWasted := top("top 5 by WASTED ISSUE SLOTS (the paired-sampling ranking)", func(r row) float64 { return r.wasted })

	fmt.Printf("\nlatency points at %s; wasted slots point at %s —\n", byLatency.loop, byWasted.loop)
	fmt.Println("the high-ILP loop accumulates latency but keeps the machine busy;")
	fmt.Println("the serial loop is where issue slots actually die.")
	// Output:
	// run: 1186007 instructions, 431015 cycles, 11191 paired samples
	//
	// top 5 by TOTAL LATENCY (the naive bottleneck ranking):
	//   loop         pc              est.latency     est.wasted     est.useful
	//   C-parallel   main+0x44            433506         547062        1186961
	//   A-serial     main+0x10            320903        1207309          76305
	//   A-serial     main+0xc             238187         851009         101739
	//   A-serial     main+0x8             179369         658127          59348
	//   C-parallel   main+0x64            152609              0         627394
	//
	// top 5 by WASTED ISSUE SLOTS (the paired-sampling ranking):
	//   loop         pc              est.latency     est.wasted     est.useful
	//   A-serial     main+0x10            320903        1207309          76305
	//   A-serial     main+0xc             238187         851009         101739
	//   A-serial     main+0x8             179369         658127          59348
	//   C-parallel   main+0x44            433506         547062        1186961
	//   C-parallel   main+0x48            142117         424338         144131
	//
	// latency points at C-parallel; wasted slots point at A-serial —
	// the high-ILP loop accumulates latency but keeps the machine busy;
	// the serial loop is where issue slots actually die.
}
