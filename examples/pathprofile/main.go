// Pathprofile: capture global branch history in ProfileMe samples and
// reconstruct the hot execution paths through a program's control-flow
// graph (§5.3) — the feedback a trace-scheduling compiler wants.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/pathprof"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

func main() {
	// The gcc-flavoured kernel: branchy recursive expression evaluation.
	prog := workload.GCC(300_000)

	// Sample with ProfileMe; each record carries the branch history
	// register captured at fetch.
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	var samples []core.Sample
	if _, err := runner.RunShard(context.Background(), prog, ccfg, core.Config{
		MeanInterval: 199,
		Window:       80,
		BufferDepth:  16,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         2,
	}, nil, func(ss []core.Sample) { samples = append(samples, ss...) }); err != nil {
		log.Fatal(err)
	}

	// A second run with dense paired sampling feeds the §5.2 edge
	// profile: pairs at fetch distance 1 observe CFG edges directly.
	edges := profile.NewEdgeProfile(37, 30)
	if _, err := runner.RunShard(context.Background(), prog, ccfg, core.Config{
		Paired: true, MeanInterval: 37, Window: 30, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 8,
	}, nil, edges.Handler()); err != nil {
		log.Fatal(err)
	}

	// Reconstruct a path for every retired sample, intraprocedurally,
	// using 8 bits of history — what a 1997 predictor kept.
	g := pathprof.NewCFG(prog)
	rc := pathprof.NewReconstructor(g, pathprof.DefaultLimits())

	const histLen = 8
	unique, ambiguous, dead := 0, 0, 0
	pathCount := map[string]int{}
	for _, s := range samples {
		r := s.First
		if !r.Retired() {
			continue
		}
		paths, truncated := rc.Consistent(r.PC, r.History, histLen, pathprof.Intraproc, nil)
		switch {
		case truncated || len(paths) > 1:
			ambiguous++
		case len(paths) == 0:
			dead++
		default:
			unique++
			pathCount[renderPath(prog, paths[0])]++
		}
	}

	fmt.Printf("%d samples: %d unique paths, %d ambiguous, %d dead ends (history = %d bits)\n\n",
		len(samples), unique, ambiguous, dead, histLen)

	type hot struct {
		path  string
		count int
	}
	var hots []hot
	for p, c := range pathCount {
		hots = append(hots, hot{p, c})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].path < hots[j].path
	})
	fmt.Println("hottest uniquely-reconstructed path segments:")
	for i, h := range hots {
		if i >= 8 {
			break
		}
		fmt.Printf("%4dx  %s\n", h.count, h.path)
	}

	fmt.Println("\ncontrol-flow edge frequencies from paired samples (§5.2):")
	fmt.Print(edges.Report(prog, 8))
}

// renderPath compacts a backward path into "start <- ... <- end" form with
// symbolized block boundaries (consecutive PCs elided).
func renderPath(prog *isa.Program, p pathprof.Path) string {
	var parts []string
	for i := 0; i < len(p); i++ {
		// Keep the first PC of each straight-line run (walking backward).
		if i == 0 || p[i] != p[i-1]-isa.InstBytes {
			parts = append(parts, prog.SymbolFor(p[i]))
		}
	}
	return strings.Join(parts, " <- ")
}
