// Memtuning: use the effective addresses that ProfileMe captures for
// memory operations to find cache-set conflicts and hot miss pages — the
// §7 "cache and TLB hit rate enhancement" feedback (the paper's CML-buffer
// equivalent), with no extra hardware beyond the Profile Registers.
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

func main() {
	// The vortex-flavoured record store: a 256 KB hashed table whose
	// probes conflict in the 64 KB data cache.
	prog := workload.Vortex(400_000)

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

	// The handler keeps only what this analysis needs: miss addresses.
	type missInfo struct {
		addr uint64
		pc   uint64
		l2   bool
	}
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
				misses = append(misses, missInfo{r.Addr, r.PC, r.Events.Has(core.EvL2Miss)})
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
	for _, m := range misses {
		setCount[dcache.SetIndex(m.addr)]++
		pageCount[m.addr>>13]++ // 8 KB pages
	}

	fmt.Printf("distinct D-cache sets with sampled misses: %d of %d\n",
		len(setCount), dcache.Config().SizeBytes/(dcache.Config().LineBytes*dcache.Config().Assoc))
	printTop("hottest conflict sets (set -> sampled misses)", setCount, 8, func(k uint64) string {
		return fmt.Sprintf("set %4d", k)
	})
	printTop("hottest miss pages (8 KB pages -> sampled misses)", pageCount, 8, func(k uint64) string {
		return fmt.Sprintf("page %#x", k<<13)
	})

	// Per-instruction attribution: which loads to prefetch or reschedule.
	pcMiss := map[uint64]int{}
	for _, m := range misses {
		pcMiss[m.pc]++
	}
	printTop("miss-heavy instructions (candidates for prefetching)", pcMiss, 5, func(k uint64) string {
		in, _ := prog.At(k)
		return fmt.Sprintf("%-14s %s", prog.SymbolFor(k), in)
	})
}

func printTop(title string, counts map[uint64]int, n int, label func(uint64) string) {
	type kv struct {
		k uint64
		v int
	}
	var all []kv
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	fmt.Printf("\n%s:\n", title)
	for i, e := range all {
		if i >= n {
			break
		}
		fmt.Printf("  %s  %d\n", label(e.k), e.v)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
