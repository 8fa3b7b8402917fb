package runner_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// ExampleRunShard is the smallest end-to-end use of the library: assemble
// a small program, run it on the out-of-order simulator with ProfileMe
// instruction sampling, and print the profile. The data-dependent parity
// branch mispredicts on more than half of its samples.
func ExampleRunShard() {
	// A toy kernel: sum an array, with an unpredictable branch on element
	// parity and a multiply on the odd path.
	prog, err := asm.Assemble(`
.proc main
    lda  r1, 20000(zero)     ; iterations
    lda  r16, table(zero)
loop:
    ld   r2, 0(r16)          ; load next element
    and  r3, r2, #1
    beq  r3, even            ; data-dependent parity branch
    mul  r4, r4, r2          ; odd: long-latency multiply
    br   next
even:
    add  r5, r5, r2
next:
    add  r16, r16, #8
    and  r16, r16, #0x21ff8  ; wrap over a 1024-element ring
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x20000
table:
`)
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		// Mix the index through splitmix64's finalizer so element
		// parities are unpredictable: any one bit of a plain i*odd
		// sequence is periodic, and the predictor learns it.
		z := i * 0x9e3779b97f4a7c15
		z ^= z >> 31
		z *= 0xbf58476d1ce4e5b9
		prog.Data[0x20000+i*8] = z >> 63
	}

	// A 4-wide out-of-order, 21264-flavoured machine, and a ProfileMe unit
	// that samples one instruction every ~256 fetched. The unit's samples
	// feed the shard's per-PC database, the profiling software's handler
	// on each interrupt.
	sh, err := runner.RunShard(context.Background(), prog, cpu.DefaultConfig(), core.Config{
		MeanInterval: 256,
		Window:       80,
		BufferDepth:  8,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         1,
	}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	db, res := sh.DB, sh.Result

	fmt.Printf("retired %d instructions in %d cycles (CPI %.2f), %d mispredicts\n",
		res.Retired, res.Cycles, res.CPI(), res.Mispredicts)
	fmt.Printf("%d profiling interrupts delivered %d samples\n\n",
		res.Interrupts, db.Samples())
	fmt.Print(db.Report(prog, 12))

	// Per-instruction event rates single out the trouble spots.
	loop, _ := prog.Label("loop")
	beqPC := loop + 2*4 // the beq
	acc := db.Get(beqPC)
	fmt.Printf("\nthe parity branch at %s mispredicts on %.0f%% of samples\n",
		prog.SymbolFor(beqPC),
		100*profile.RateEstimate(acc.EventCount(core.EvMispredict), acc.Samples))
	// Output:
	// retired 169882 instructions in 239448 cycles (CPI 1.41), 9746 mispredicts
	// 79 profiling interrupts delivered 627 samples
	//
	// 627 samples (0 paired), mean interval 256
	// PC         instruction               samples  est.cnt(±95%)    ret%  dmiss%  mispr%   avg-lat
	// main+0x8   ld r2, 0(r16)                  89    22784±4734   100.0%    1.1%    0.0%       5.0
	// main+0x2c  bne r1, 0x8                    81    20736±4516   100.0%    0.0%    0.0%       3.5
	// main+0x20  add r16, r16, #8               80    20480±4488   100.0%    0.0%    0.0%       3.2
	// main+0x24  and r16, r16, #139256          70    17920±4198   100.0%    0.0%    0.0%       4.0
	// main+0x28  sub r1, r1, #1                 66    16896±4076   100.0%    0.0%    0.0%       3.0
	// main+0xc   and r3, r2, #1                 62    15872±3951   100.0%    0.0%    0.0%       6.0
	// main+0x10  beq r3, 0x1c                   60    15360±3887   100.0%    0.0%   61.7%      10.1
	// main+0x1c  add r5, r5, r2                 43    11008±3290   100.0%    0.0%    0.0%       4.2
	// main+0x14  mul r4, r4, r2                 41    10496±3213   100.0%    0.0%    0.0%      10.6
	// main+0x18  br 0x20                        35     8960±2968   100.0%    0.0%    0.0%       3.0
	//
	// the parity branch at main+0x10 mispredicts on 62% of samples
}

// ExampleRunShard_missAddresses uses the effective addresses ProfileMe
// captures for memory operations to find cache-set conflicts and hot miss
// pages: the §7 cache and TLB feedback (the paper's CML-buffer
// equivalent), with no hardware beyond the Profile Registers. The shard's
// handler keeps only what the analysis needs, and the pipeline's D-cache
// maps each sampled miss address to its set.
func ExampleRunShard_missAddresses() {
	// The vortex-flavoured record store: a 256 KB hashed table whose
	// probes conflict in the 64 KB data cache.
	prog, err := workload.Program("vortex", 0, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	ccfg := cpu.DefaultConfig()
	ccfg.InterruptCost = 0
	ucfg := core.Config{
		MeanInterval: 128,
		Window:       80,
		BufferDepth:  32,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         4,
	}

	type missInfo struct{ addr, pc uint64 }
	var misses []missInfo
	var memSamples int
	sh, err := runner.RunShard(context.Background(), prog, ccfg, ucfg, nil, func(ss []core.Sample) {
		for _, s := range ss {
			r := s.First
			if !r.AddrValid {
				continue
			}
			memSamples++
			if r.Events.Has(core.EvDCacheMiss) {
				misses = append(misses, missInfo{r.Addr, r.PC})
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	res := sh.Result

	fmt.Printf("run: %d instructions, CPI %.2f\n", res.Retired, res.CPI())
	fmt.Printf("%d memory-op samples, %d with D-cache misses (%.1f%%)\n\n",
		memSamples, len(misses), 100*float64(len(misses))/float64(max(1, memSamples)))

	// Group sampled miss addresses by D-cache set: a few overloaded sets
	// mean conflict misses that page recoloring could spread out.
	dcache := sh.Pipeline.Hierarchy().DCache()
	setCount := map[uint64]int{}
	pageCount := map[uint64]int{}
	pcMiss := map[uint64]int{}
	for _, m := range misses {
		setCount[dcache.SetIndex(m.addr)]++
		pageCount[m.addr>>13]++ // 8 KB pages
		pcMiss[m.pc]++
	}
	dc := dcache.Config()
	fmt.Printf("distinct D-cache sets with sampled misses: %d of %d\n",
		len(setCount), dc.SizeBytes/(dc.LineBytes*dc.Assoc))
	printTop("hottest conflict sets (set -> sampled misses)", setCount, 8, func(k uint64) string {
		return fmt.Sprintf("set %4d", k)
	})
	printTop("hottest miss pages (8 KB pages -> sampled misses)", pageCount, 8, func(k uint64) string {
		return fmt.Sprintf("page %#x", k<<13)
	})
	// Per-instruction attribution: which loads to prefetch or reschedule.
	printTop("miss-heavy instructions (candidates for prefetching)", pcMiss, 5, func(k uint64) string {
		in, _ := prog.At(k)
		return fmt.Sprintf("%-14s %s", prog.SymbolFor(k), in)
	})
	// Output:
	// run: 144741 instructions, CPI 1.85
	// 111 memory-op samples, 25 with D-cache misses (22.5%)
	//
	// distinct D-cache sets with sampled misses: 23 of 512
	//
	// hottest conflict sets (set -> sampled misses):
	//   set   10  2
	//   set  108  2
	//   set   16  1
	//   set   32  1
	//   set   61  1
	//   set  103  1
	//   set  123  1
	//   set  194  1
	//
	// hottest miss pages (8 KB pages -> sampled misses):
	//   page 0x90000  4
	//   page 0x9e000  3
	//   page 0x9c000  2
	//   page 0xb0000  2
	//   page 0xb4000  2
	//   page 0x96000  1
	//   page 0x98000  1
	//   page 0xa4000  1
	//
	// miss-heavy instructions (candidates for prefetching):
	//   lookup+0x18    ld r4, 0(r3)  25
}

// printTop prints the n largest counts, ties broken by ascending key.
func printTop(title string, counts map[uint64]int, n int, label func(uint64) string) {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	fmt.Printf("\n%s:\n", title)
	for _, k := range keys[:min(n, len(keys))] {
		fmt.Printf("  %s  %d\n", label(k), counts[k])
	}
}
