package pathprof

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// Example_hotPaths captures global branch history in ProfileMe samples
// and reconstructs the hot execution paths through a program's
// control-flow graph (§5.3): the feedback a trace-scheduling compiler
// wants. A second, densely paired run feeds the §5.2 edge profile.
func Example_hotPaths() {
	// The gcc-flavoured kernel: branchy recursive expression evaluation.
	prog, err := workload.Program("gcc", 0, 80_000)
	if err != nil {
		log.Fatal(err)
	}

	// Each sampled record carries the branch history register captured
	// at fetch.
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

	// Pairs at fetch distance 1 observe CFG edges directly.
	edges := profile.NewEdgeProfile(37, 30)
	if _, err := runner.RunShard(context.Background(), prog, ccfg, core.Config{
		Paired: true, MeanInterval: 37, Window: 30, BufferDepth: 32,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 8,
	}, nil, edges.Handler()); err != nil {
		log.Fatal(err)
	}

	// Reconstruct a path for every retired sample, intraprocedurally,
	// using 8 bits of history: what a 1997 predictor kept.
	rc := newReconstructor(newCFG(prog), defaultLimits())
	const histLen = 8
	unique, ambiguous, dead := 0, 0, 0
	pathCount := map[string]int{}
	for _, s := range samples {
		r := s.First
		if !r.Retired() {
			continue
		}
		paths, truncated := rc.consistent(r.PC, r.History, histLen, intraproc, nil)
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

	hot := make([]string, 0, len(pathCount))
	for p := range pathCount {
		hot = append(hot, p)
	}
	sort.Slice(hot, func(i, j int) bool {
		if pathCount[hot[i]] != pathCount[hot[j]] {
			return pathCount[hot[i]] > pathCount[hot[j]]
		}
		return hot[i] < hot[j]
	})
	fmt.Println("hottest uniquely-reconstructed path segments:")
	for _, p := range hot[:min(8, len(hot))] {
		fmt.Printf("%4dx  %s\n", pathCount[p], p)
	}

	fmt.Println("\ncontrol-flow edge frequencies from paired samples (§5.2):")
	fmt.Print(edges.Report(prog, 8))
	// Output:
	// 280 samples: 180 unique paths, 1 ambiguous, 98 dead ends (history = 8 bits)
	//
	// hottest uniquely-reconstructed path segments:
	//   22x  eval+0x0
	//   18x  eval+0x4
	//   17x  eval+0x8
	//   12x  eval+0x24 <- eval+0x8
	//   12x  eval+0x28 <- eval+0x8
	//   12x  eval+0xc
	//   11x  eval+0x1c <- eval+0x8
	//   11x  eval+0x2c <- eval+0x8
	//
	// control-flow edge frequencies from paired samples (§5.2):
	// edge profile: 884 pairs, 34 at distance 1 (3.8%), 20 distinct edges
	//   eval+0x0         -> eval+0x4              3 obs  ~3330 executions
	//   eval+0x4         -> eval+0x8              3 obs  ~3330 executions
	//   eval+0xc         -> eval+0x10             3 obs  ~3330 executions
	//   eval+0x1c        -> eval+0x20             3 obs  ~3330 executions
	//   eval+0x24        -> eval+0x28             3 obs  ~3330 executions
	//   eval+0x30        -> eval+0x34             2 obs  ~2220 executions
	//   eval+0x40        -> eval+0x44             2 obs  ~2220 executions
	//   eval+0x48        -> eval+0x4c             2 obs  ~2220 executions
}

// renderPath compacts a backward path into "start <- ... <- end" form
// with symbolized block boundaries (consecutive PCs elided).
func renderPath(prog *isa.Program, p path) string {
	var parts []string
	for i := range p {
		// Keep the first PC of each straight-line run (walking backward).
		if i == 0 || p[i] != p[i-1]-isa.InstBytes {
			parts = append(parts, prog.SymbolFor(p[i]))
		}
	}
	return strings.Join(parts, " <- ")
}
