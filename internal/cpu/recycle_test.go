package cpu

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"profileme/internal/core"
	"profileme/internal/counters"
	"profileme/internal/faultinject"
	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// recycleScale keeps the matrix (11 kernels x 8 variants, every cycle
// checked) inside a few seconds.
const recycleScale = 2000

// recycleVariants are the pipeline flavours whose uop lifetimes differ:
// issue order, wrong-path fetch, replay squashes, tags that outlive
// retirement, held interrupts, per-cycle attribution, and a memory
// latency far beyond the default.
var recycleVariants = []struct {
	name  string
	build func(prog *isa.Program, src sim.Source) (*Pipeline, error)
}{
	{"default", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		return New(prog, src, DefaultConfig())
	}},
	{"inorder", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		return New(prog, src, InOrderConfig())
	}},
	{"nowrongpath", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		cfg := DefaultConfig()
		cfg.NoWrongPath = true
		return New(prog, src, cfg)
	}},
	{"noreplay", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		cfg := DefaultConfig()
		cfg.ReplayTraps = false
		return New(prog, src, cfg)
	}},
	{"paired", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		p, err := New(prog, src, DefaultConfig())
		if err == nil {
			p.AttachProfileMe(recycleUnit(), nil)
		}
		return p, err
	}},
	{"faults", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		plan, err := faultinject.NewPlan(5, faultinject.Uniform(0.2))
		if err != nil {
			return nil, err
		}
		p, err := New(prog, src, DefaultConfig())
		if err == nil {
			unit := recycleUnit()
			unit.AttachFaults(plan)
			p.AttachProfileMe(unit, nil)
			p.AttachFaults(plan)
		}
		return p, err
	}},
	{"counters", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		p, err := New(prog, src, DefaultConfig())
		if err == nil {
			p.AttachCounters(counters.New(counters.Config{
				Monitor: counters.EventRetired, Period: 200, Skid: 6, SkidJitter: 4, Seed: 9,
			}, nil))
		}
		return p, err
	}},
	{"slowhier", func(prog *isa.Program, src sim.Source) (*Pipeline, error) {
		cfg := DefaultConfig()
		cfg.Mem.MemLatency = 400
		return NewWithHierarchy(prog, src, cfg, mem.NewHierarchy(cfg.Mem))
	}},
}

func recycleUnit() *core.Unit {
	return core.MustNewUnit(core.Config{
		Paired: true, MeanInterval: 40, Window: 80, BufferDepth: 4,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 3,
	})
}

// recycleGolden is {cycles, retired} per kernel per variant (variant order
// as in recycleVariants), recorded at the commit before uops were recycled
// by stepping that pipeline over the same matrix.
var recycleGolden = map[string][8][2]int64{
	"compress": {{4389, 1417}, {11973, 1417}, {4487, 1417}, {4389, 1417}, {4417, 1417}, {4417, 1417}, {4389, 1417}, {16229, 1417}},
	"gcc":      {{11618, 3783}, {19616, 3783}, {11189, 3783}, {11630, 3783}, {11751, 3783}, {11730, 3783}, {11618, 3783}, {36363, 3783}},
	"go":       {{17938, 11406}, {25158, 11406}, {17950, 11406}, {17938, 11406}, {18534, 11406}, {18398, 11406}, {17938, 11406}, {35467, 11406}},
	"ijpeg":    {{2937, 2115}, {5397, 2115}, {2937, 2115}, {2937, 2115}, {2960, 2115}, {2977, 2115}, {2937, 2115}, {11257, 2115}},
	"li":       {{27208, 3025}, {46519, 3025}, {26128, 3025}, {27208, 3025}, {27267, 3025}, {27236, 3025}, {27208, 3025}, {96328, 3025}},
	"perl":     {{4660, 2220}, {5987, 2220}, {4753, 2220}, {4555, 2220}, {4744, 2220}, {4708, 2220}, {4660, 2220}, {12020, 2220}},
	"povray":   {{2735, 1904}, {5588, 1904}, {2787, 1904}, {2735, 1904}, {2822, 1904}, {2793, 1904}, {2735, 1904}, {9135, 1904}},
	"vortex":   {{7077, 1881}, {11492, 1881}, {7170, 1881}, {7077, 1881}, {7132, 1881}, {7089, 1881}, {7077, 1881}, {22117, 1881}},
	"m88ksim":  {{3878, 2059}, {5433, 2059}, {3958, 2059}, {3892, 2059}, {3957, 2059}, {3943, 2059}, {3878, 2059}, {10278, 2059}},
	"swim":     {{3852, 2130}, {5333, 2130}, {4034, 2130}, {2653, 2130}, {4114, 2130}, {3973, 2130}, {3852, 2130}, {5772, 2130}},
	"eqntott":  {{15743, 9027}, {16836, 9027}, {15050, 9027}, {10095, 9027}, {16286, 9027}, {16121, 9027}, {15743, 9027}, {22663, 9027}},
}

// TestUopRecycleInvariant steps every kernel through every variant and,
// after each cycle, checks that nothing reachable is on the free list and
// that the issue bookkeeping (ready lists, queue counts, register waiter
// lists) agrees with the renamer's readiness. The latter is the oracle for
// lost wakeups: with the wake call removed from wakeLoad, a load's
// consumers keep counting a source that is already ready and the first
// check after the value arrives fails.
func TestUopRecycleInvariant(t *testing.T) {
	for _, b := range workload.Suite() {
		prog := b.Build(recycleScale)
		for vi, v := range recycleVariants {
			p, err := v.build(prog, sim.NewMachineSource(sim.New(prog), 0))
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v.name, err)
			}
			var check recycleChecker
			for !p.done() {
				if p.cycle > 1_000_000 {
					t.Fatalf("%s/%s: not drained after %d cycles", b.Name, v.name, p.cycle)
				}
				p.step()
				if msg := check.violation(p); msg != "" {
					t.Fatalf("%s/%s cycle %d: %s", b.Name, v.name, p.cycle, msg)
				}
			}
			res := p.Finish()
			if got, want := [2]int64{res.Cycles, int64(res.Retired)}, recycleGolden[b.Name][vi]; got != want {
				t.Errorf("%s/%s: {cycles, retired} = %v, parent commit had %v", b.Name, v.name, got, want)
			}
		}
	}
}

// recycleChecker finds disagreements between a pipeline's free list and
// its live holders without a map per cycle. Every uop object that was ever
// fetched carries a seq no other object carries (a recycled one keeps its
// old seq until newUop hands it out again), so seq indexes the scratch
// slices: free and ready hold the stamp (cycle) at which the uop was last
// seen there, ringRefs counts its ring entries this cycle.
type recycleChecker struct {
	free, ready []int64
	ringRefs    []uint8
	live        []*uop
}

// violation reports the first inconsistency, or "": the free list has no
// duplicate and only releasable uops; no holder (ROB, fetch buffer, ready
// lists, event-ring slots) reaches a free uop; the ROB's dead
// region is nil and its live region holds nothing squashed; each
// reachable uop's recycling state matches where it actually sits; and the
// issue bookkeeping agrees with register readiness (see issueViolation).
func (c *recycleChecker) violation(p *Pipeline) string {
	for uint64(len(c.free)) < p.seqCounter {
		c.free, c.ready, c.ringRefs = append(c.free, 0), append(c.ready, 0), append(c.ringRefs, 0)
	}
	stamp := p.cycle + 1
	for _, u := range p.free {
		if c.free[u.seq] == stamp {
			return "uop is on the free list twice"
		}
		c.free[u.seq] = stamp
		if (u.state != stRetired && u.state != stSquashed) || u.pending != 0 {
			return "free uop is not releasable"
		}
	}
	c.live = c.live[:0]
	hold := func(where string, us []*uop) string {
		for _, u := range us {
			if u == nil {
				return "nil uop in " + where
			}
			if c.free[u.seq] == stamp {
				return "free uop reachable from " + where
			}
			c.live = append(c.live, u)
		}
		return ""
	}
	for i := 0; i < len(p.rob); i++ {
		slot := (p.robHead + i) % len(p.rob)
		if i >= p.robCount {
			if p.rob[slot] != nil {
				return "dead ROB slot still holds a uop"
			}
			continue
		}
		if msg := hold("rob", p.rob[slot:slot+1]); msg != "" {
			return msg
		}
		if p.rob[slot].state == stSquashed {
			return "squashed uop left in the ROB"
		}
	}
	if msg := hold("fetchBuf", p.fetchBuf[p.fetchHead:]); msg != "" {
		return msg
	}
	for _, l := range [][]*uop{p.rdyInt, p.rdyFP} {
		if msg := hold("ready list", l); msg != "" {
			return msg
		}
	}
	ring := func(us []*uop) string {
		if msg := hold("event ring", us); msg != "" {
			return msg
		}
		for _, u := range us {
			c.ringRefs[u.seq]++
		}
		return ""
	}
	for _, r := range []*eventRing{p.completing, p.wakeups} {
		for _, us := range r.slots {
			if msg := ring(us); msg != "" {
				return msg
			}
		}
	}
	for _, u := range c.live {
		if u.pending != c.ringRefs[u.seq] {
			return "pending count disagrees with the ring entries"
		}
	}
	for _, u := range c.live { // every ring entry is in live: counts back to zero
		c.ringRefs[u.seq] = 0
	}
	return c.issueViolation(p, stamp)
}

// issueViolation checks the wakeup-driven issue bookkeeping against the
// renamer: each ready list is in age order and holds only mapped uops of
// its class whose sources are all ready; iqIntN and iqFPN count the mapped
// uops of each class in the ROB; and every other mapped uop is a live
// waiter on each of its not-ready sources, once per operand, with
// u.waiting equal to their number — so no wakeup was lost or counted twice.
func (c *recycleChecker) issueViolation(p *Pipeline, stamp int64) string {
	for fp, l := range [2][]*uop{p.rdyInt, p.rdyFP} {
		for i, u := range l {
			switch {
			case i > 0 && l[i-1].seq >= u.seq:
				return "ready list out of age order"
			case u.state != stMapped:
				return "ready list holds a uop that is not mapped"
			case u.fp != (fp == 1):
				return "uop in the other class's ready list"
			case u.waiting != 0:
				return "ready list holds a uop still waiting"
			}
			for _, s := range u.src[:u.nsrc] {
				if !p.ren.isReady(s) {
					return "ready list holds a uop with a source not ready"
				}
			}
			c.ready[u.seq] = stamp
		}
	}
	var mapped [2]int
	for i := 0; i < p.robCount; i++ {
		u := p.rob[(p.robHead+i)%len(p.rob)]
		if u.state != stMapped {
			continue
		}
		if u.fp {
			mapped[1]++
		} else {
			mapped[0]++
		}
		var notReady uint8
		for j, s := range u.src[:u.nsrc] {
			if p.ren.isReady(s) {
				continue
			}
			notReady++
			if j == 1 && s == u.src[0] {
				continue // same register twice: counted at j == 0
			}
			operands, entries := 0, 0
			for _, t := range u.src[:u.nsrc] {
				if t == s {
					operands++
				}
			}
			for _, w := range p.ren.waiters[s] {
				if w.u == u && w.seq == u.seq {
					entries++
				}
			}
			if entries != operands {
				return "mapped uop is not a waiter on a source it waits for (lost wakeup)"
			}
		}
		if u.waiting != notReady {
			return "waiting count disagrees with the sources not ready (lost wakeup)"
		}
		if notReady == 0 && c.ready[u.seq] != stamp {
			return "mapped uop with every source ready is in no ready list (lost wakeup)"
		}
	}
	if mapped != [2]int{p.iqIntN, p.iqFPN} {
		return "issue-queue counts disagree with the mapped uops in the ROB"
	}
	return ""
}

// steadyStateAlloc is {allocations, bytes} for one unsampled
// DefaultConfig run of each kernel at scale 100,000, machine and pipeline
// construction included. Both repeat to within a few runtime allocations,
// with or without -race; lower a row when a change allocates less.
var steadyStateAlloc = map[string][2]uint64{
	"compress": {1827, 1476768},
	"gcc":      {1555, 1224064},
	"go":       {835, 906672},
	"ijpeg":    {1437, 5675776},
	"li":       {13774, 8017840},
	"perl":     {1199, 1111744},
	"povray":   {799, 892352},
	"vortex":   {4626, 3104496},
	"m88ksim":  {1431, 1217184},
	"swim":     {1336, 1174432},
	"eqntott":  {879, 876736},
}

// allocExcess names what a run allocated beyond want by more than 15%,
// or returns "". Both counts are gated: the count alone once let a change
// that traded 525,782 small allocations for 2,006 arena chunks of 290 KB
// each read as a win.
func allocExcess(allocs, bytes uint64, want [2]uint64) string {
	switch {
	case float64(allocs) > 1.15*float64(want[0]):
		return fmt.Sprintf("%d allocations, want <= %d + 15%%", allocs, want[0])
	case float64(bytes) > 1.15*float64(want[1]):
		return fmt.Sprintf("%d bytes, want <= %d + 15%%", bytes, want[1])
	}
	return ""
}

// TestAllocExcessGatesBytes checks the gate itself: an unchanged run
// passes, and fewer but far larger allocations fail on bytes.
func TestAllocExcessGatesBytes(t *testing.T) {
	want := [2]uint64{1000, 5_000_000}
	if msg := allocExcess(want[0], want[1], want); msg != "" {
		t.Fatalf("unchanged run rejected: %s", msg)
	}
	if msg := allocExcess(10, 50_000_000, want); !strings.Contains(msg, "bytes") {
		t.Fatalf("fewer, far larger allocations passed the gate: %q", msg)
	}
}

// TestPipelineSteadyStateAlloc pins the recycling itself: a run allocates
// its peak window, the functional machine's pages and the trace window —
// not one uop per fetched instruction (283 B each before recycling).
func TestPipelineSteadyStateAlloc(t *testing.T) {
	var pairBytes, pairFetched uint64 // li and compress keep the per-uop bound
	for _, b := range workload.Suite() {
		prog := b.Build(100_000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _ := runProgram(t, prog, DefaultConfig())
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%-8s %6d allocations %9d B", b.Name, allocs, bytes)
		if msg := allocExcess(allocs, bytes, steadyStateAlloc[b.Name]); msg != "" {
			t.Errorf("%s: %s", b.Name, msg)
		}
		if b.Name == "li" || b.Name == "compress" {
			pairBytes += bytes
			pairFetched += res.FetchedOnPath + res.FetchedOffPath
		}
	}
	if per := float64(pairBytes) / float64(pairFetched); per > 32 {
		t.Fatalf("li+compress: %.1f B allocated per fetched uop, want <= 32", per)
	}
}
