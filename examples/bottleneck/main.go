// Bottleneck: use paired sampling to find where issue slots actually go
// to waste — and show that ranking instructions by latency alone names
// the wrong loop, the paper's core argument (§6, Figure 7).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// row is one static instruction's estimated totals.
type row struct {
	pc             uint64
	loop           string
	latency        float64 // estimated total in-progress latency
	wasted, useful float64
}

func main() {
	// The paper's three-loop program: a serial multiply chain (loop A), a
	// cache-resident pointer chase (loop B), and a high-ILP loop (loop C)
	// that runs the most iterations.
	prog := workload.Figure7Program(8000)
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
	db, res := sh.DB, sh.Result
	db.Realize(res.FetchedOnPath) // scale by the realized interval

	var rows []row
	for _, pc := range db.PCs() {
		acc := db.Get(pc)
		if acc == nil || acc.Samples < 20 {
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

	byLatency := append([]row(nil), rows...)
	sort.Slice(byLatency, func(i, j int) bool { return byLatency[i].latency > byLatency[j].latency })
	byWasted := append([]row(nil), rows...)
	sort.Slice(byWasted, func(i, j int) bool { return byWasted[i].wasted > byWasted[j].wasted })

	fmt.Printf("run: %d instructions, %d cycles, %d paired samples\n\n",
		res.Retired, res.Cycles, db.Pairs())

	fmt.Println("top 5 by TOTAL LATENCY (the naive bottleneck ranking):")
	printRows(prog, byLatency[:5])
	fmt.Println("\ntop 5 by WASTED ISSUE SLOTS (the paired-sampling ranking):")
	printRows(prog, byWasted[:5])

	fmt.Printf("\nlatency points at %s; wasted slots point at %s —\n",
		byLatency[0].loop, byWasted[0].loop)
	fmt.Println("the high-ILP loop accumulates latency but keeps the machine busy;")
	fmt.Println("the serial loop is where issue slots actually die.")
}

func printRows(prog interface{ SymbolFor(uint64) string }, rows []row) {
	fmt.Printf("  %-12s %-12s %14s %14s %14s\n", "loop", "pc", "est.latency", "est.wasted", "est.useful")
	for _, r := range rows {
		fmt.Printf("  %-12s %-12s %14.0f %14.0f %14.0f\n",
			r.loop, prog.SymbolFor(r.pc), r.latency, r.wasted, r.useful)
	}
}
