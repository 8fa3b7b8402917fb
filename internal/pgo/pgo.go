// Package pgo implements the profile-guided optimization the paper's §7
// motivates: feed ProfileMe's per-instruction miss rates, memory latencies
// and sampled effective addresses back into the program, by detecting
// strided miss-heavy loads and inserting prefetch instructions ahead of
// them ("one important aspect of instruction scheduling is the insertion
// of prefetches"; cf. Abraham & Rau's latency-driven scheduling).
//
// The pass is deliberately simple — it is the consumer the hardware was
// designed for, not a production compiler — but it is a real program
// transformation: the rewriter relocates every instruction after an
// insertion point and fixes all direct control-flow targets.
package pgo

import (
	"fmt"
	"sort"

	"profileme/internal/core"
	"profileme/internal/isa"
	"profileme/internal/profile"
)

// candidate is a load the analysis proposes to prefetch.
type candidate struct {
	PC       uint64
	Samples  uint64
	MissRate float64 // sampled D-cache miss fraction
	MeanLat  float64 // sampled load issue -> completion latency
	Stride   int64   // detected address stride per execution (0 = none)
}

// The candidate thresholds.
const (
	minSamples  = 8   // ignore PCs with fewer samples
	minMissRate = 0.3 // only miss-heavy loads are worth prefetching
	minMeanLat  = 20  // cycles; skip loads the cache already serves
)

// analyze scans the profile database for miss-heavy strided loads. The
// database must have been collected with RetainAddrs > 1 so stride
// detection has addresses to work with.
func analyze(db *profile.DB, prog *isa.Program) []candidate {
	var out []candidate
	for _, pc := range db.PCs() {
		in, ok := prog.At(pc)
		if !ok || in.Op != isa.OpLd {
			continue
		}
		a := db.Get(pc)
		if a.Samples < minSamples || a.MemLatCount == 0 {
			continue
		}
		missRate := profile.RateEstimate(a.EventCount(core.EvDCacheMiss), a.Samples)
		meanLat := float64(a.MemLatSum) / float64(a.MemLatCount)
		if missRate < minMissRate || meanLat < minMeanLat {
			continue
		}
		stride := detectStride(db.Addrs(pc))
		out = append(out, candidate{
			PC: pc, Samples: a.Samples, MissRate: missRate, MeanLat: meanLat, Stride: stride,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		wi := float64(out[i].Samples) * out[i].MissRate * out[i].MeanLat
		wj := float64(out[j].Samples) * out[j].MissRate * out[j].MeanLat
		if wi != wj {
			return wi > wj
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// detectStride infers a constant address stride from sampled effective
// addresses taken at random execution distances: every pairwise difference
// is then an integer multiple of the stride, so their GCD recovers it.
// It returns 0 when no consistent positive stride emerges (e.g. pointer
// chasing or hash probing).
func detectStride(addrs []uint64) int64 {
	if len(addrs) < 3 {
		return 0
	}
	var g int64
	prev := int64(addrs[0])
	for _, a := range addrs[1:] {
		d := int64(a) - prev
		prev = int64(a)
		if d < 0 {
			d = -d
		}
		if d == 0 {
			continue
		}
		g = gcd(g, d)
	}
	// A stride only helps if it is a plausible element size: huge GCDs
	// mean the samples shared one accident, tiny ones nothing.
	if g < 8 || g > 1<<20 {
		return 0
	}
	// Verify: every difference must be an exact multiple.
	prev = int64(addrs[0])
	for _, a := range addrs[1:] {
		d := int64(a) - prev
		prev = int64(a)
		if d%g != 0 {
			return 0
		}
	}
	return g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// plan is one prefetch insertion: before the load at LoadPC, prefetch
// [base + LoadImm + Ahead] using the load's own base register.
type plan struct {
	LoadPC uint64
	Ahead  int64 // displacement added to the load's address
}

// planPrefetches turns candidates into insertion plans: the prefetch
// reaches Distance executions ahead (Distance * stride bytes past the
// current address). Candidates without a stride are skipped.
func planPrefetches(cands []candidate, distance int64) []plan {
	var out []plan
	for _, c := range cands {
		if c.Stride == 0 {
			continue
		}
		out = append(out, plan{LoadPC: c.PC, Ahead: c.Stride * distance})
	}
	return out
}

// insertPrefetches rewrites prog with a pref instruction immediately
// before each planned load, relocating all following instructions and
// retargeting every direct branch, jump and call. Programs containing
// indirect jumps are rejected: their targets (jump tables in data) cannot
// be relocated safely. Returns the rewritten program.
func insertPrefetches(prog *isa.Program, plans []plan) (*isa.Program, error) {
	if len(plans) == 0 {
		return prog, nil
	}
	for _, in := range prog.Insts {
		if in.Op == isa.OpJmp {
			return nil, fmt.Errorf("pgo: cannot rewrite programs with indirect jumps")
		}
	}
	insertAt := make(map[uint64]int64) // load PC -> Ahead
	for _, p := range plans {
		in, ok := prog.At(p.LoadPC)
		if !ok || in.Op != isa.OpLd {
			return nil, fmt.Errorf("pgo: plan targets %#x, which is not a load", p.LoadPC)
		}
		insertAt[p.LoadPC] = p.Ahead
	}

	// Pass 1: compute the relocation map old PC -> new PC. A load with an
	// insertion relocates to the prefetch's address, so control transfers
	// targeting the load (loop back-edges above all) execute the prefetch
	// on every trip.
	newPC := make([]uint64, prog.Len()+1)
	cursor := uint64(0)
	for i := 0; i < prog.Len(); i++ {
		old := uint64(i) * isa.InstBytes
		newPC[i] = cursor
		if _, ins := insertAt[old]; ins {
			cursor += isa.InstBytes // room for the pref
		}
		cursor += isa.InstBytes
	}
	newPC[prog.Len()] = cursor
	relocate := func(target uint64) uint64 { return newPC[target/isa.InstBytes] }

	// Pass 2: emit.
	out := &isa.Program{
		Labels: make(map[string]uint64, len(prog.Labels)),
		Data:   make(map[uint64]uint64, len(prog.Data)),
		Entry:  relocate(prog.Entry),
	}
	for a, v := range prog.Data {
		out.Data[a] = v
	}
	for name, pc := range prog.Labels {
		if pc < prog.MaxPC() {
			out.Labels[name] = relocate(pc)
		} else {
			out.Labels[name] = pc // data label
		}
	}
	for _, pr := range prog.Procs {
		out.Procs = append(out.Procs, isa.Proc{
			Name: pr.Name, Start: relocate(pr.Start), End: newPC[pr.End/isa.InstBytes],
		})
	}
	for i := 0; i < prog.Len(); i++ {
		old := uint64(i) * isa.InstBytes
		in, _ := prog.At(old)
		if ahead, ins := insertAt[old]; ins {
			out.Insts = append(out.Insts, isa.Inst{
				Op: isa.OpPref, Rb: in.Rb, Imm: in.Imm + ahead,
			})
		}
		if in.Op.IsControl() && !in.Op.IsIndirect() {
			in.Target = relocate(in.Target)
		}
		out.Insts = append(out.Insts, in)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pgo: rewritten program invalid: %w", err)
	}
	return out, nil
}
