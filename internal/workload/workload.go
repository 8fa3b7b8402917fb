// Package workload provides the benchmark programs the experiments run:
// a suite of eight synthetic kernels shaped after the SPECint95 programs
// the paper profiles (COMPRESS, GCC, GO, IJPEG, LI, PERL, POVRAY, VORTEX),
// three extension kernels that grow the suite toward the production
// workload mixes continuous profiling serves (M88KSIM, SWIM, EQNTOTT),
// plus the special-purpose programs behind individual figures — the
// Figure 2 load+nops loop, the Figure 7 three-loop program, and the
// Table 1 stall-stress kernels.
//
// The kernels are synthetic but structurally faithful: each reproduces the
// control-flow and memory behaviour that its namesake is known for
// (compress hashes a data stream, li chases pointers, ijpeg does dense
// arithmetic, perl dispatches through a jump table, and so on). That is
// what the paper's analyses actually consume — instruction streams with
// realistic branch structure, cache behaviour and varying ILP — and it is
// the documented substitution for the proprietary SPEC binaries and
// traces (DESIGN.md §2).
package workload

import (
	"fmt"

	"profileme/internal/isa"
	"profileme/internal/stats"
)

// Benchmark names a suite program and builds it at a given scale
// (approximately scale dynamic instructions, within a small factor).
//
// Every builder is seeded: BuildSeeded(scale, dataSeed) varies the
// kernel's data layout (hash-table contents, tree shapes, bytecode,
// grids) deterministically from dataSeed, so a traffic spec naming a
// (benchmark, scale, dataSeed) triple reproduces the program bit-for-bit
// with no hidden package state. dataSeed 0 selects the canonical layout;
// Build(scale) is exactly BuildSeeded(scale, 0).
type Benchmark struct {
	Name        string
	Notes       string // dominant behaviour, for reports
	Build       func(scale int) *isa.Program
	BuildSeeded func(scale int, dataSeed uint64) *isa.Program
}

// Suite returns the benchmark suite: the paper's eight SPECint95-flavoured
// kernels in the paper's order, then the extension kernels.
func Suite() []Benchmark {
	return []Benchmark{
		{"compress", "hash-table stream compression: data-dependent branches, table misses", Compress, compressSeeded},
		{"gcc", "expression-tree evaluation: call-heavy, branchy, pointer loads", gcc, gccSeeded},
		{"go", "board scanning: irregular data-dependent branches", Go, goSeeded},
		{"ijpeg", "dense block arithmetic: high ILP, regular memory", Ijpeg, ijpegSeeded},
		{"li", "cons-cell list interpreter: serial pointer chasing", li, liSeeded},
		{"perl", "bytecode interpreter: indirect-jump dispatch, stack traffic", Perl, perlSeeded},
		{"povray", "ray-sphere arithmetic: FP-heavy with divides", povray, povraySeeded},
		{"vortex", "record store: hashed lookups, stores, call chains", vortex, vortexSeeded},
		{"m88ksim", "CPU-simulator interpreter: indirect dispatch over a memory register file", m88ksim, m88ksimSeeded},
		{"swim", "shallow-water relaxation: 5-point FP stencil, regular strides", swim, swimSeeded},
		{"eqntott", "truth-table term exchange: compare-driven swaps, mispredict-heavy", eqntott, eqntottSeeded},
	}
}

// ByName returns the named suite benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Program builds the program a (benchmark, generator seed, scale) triple
// names — the one job→program mapping pmsim's single run and every fleet
// job share. A non-empty bench selects the suite kernel at scale; otherwise
// the program is generated from genSeed (0 means 1), its driver loop sized
// at one iteration per ~250 instructions of scale and never below one.
func Program(bench string, genSeed uint64, scale int) (*isa.Program, error) {
	if bench == "" {
		gc := DefaultGenConfig()
		gc.Seed = max(genSeed, 1)
		gc.MainIters = max(scale/250, 1)
		return Generate(gc), nil
	}
	b, ok := ByName(bench)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", bench)
	}
	return b.Build(scale), nil
}

// Names returns the suite benchmark names in order.
func Names() []string {
	s := Suite()
	names := make([]string, len(s))
	for i, b := range s {
		names[i] = b.Name
	}
	return names
}

// deriveSeed mixes a caller-supplied data seed into a kernel's canonical
// data-fill seed. dataSeed 0 means "canonical": the kernel lays out its
// data exactly as the golden runs expect, so every existing digest and
// experiment stands. Any other value yields a decorrelated but fully
// reproducible layout — the same (benchmark, scale, dataSeed) triple
// always builds the same program.
func deriveSeed(canonical, dataSeed uint64) uint64 {
	if dataSeed == 0 {
		return canonical
	}
	return canonical ^ (dataSeed*0x9e3779b97f4a7c15 + 0x94d049bb133111eb)
}

// fillWords writes n pseudo-random words (bounded by mod when mod > 0)
// into prog.Data starting at base, stepping 8 bytes.
func fillWords(prog *isa.Program, base uint64, n int, seed uint64, mod uint64) {
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		v := rng.Uint64()
		if mod > 0 {
			v %= mod
		}
		prog.Data[base+uint64(i)*8] = v
	}
}

// sanity validates a built program once at construction time; workload
// bugs should fail loudly, not corrupt experiments.
func sanity(p *isa.Program, err error) *isa.Program {
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return p
}

// clampScale bounds scale to [lo, hi].
func clampScale(scale, lo, hi int) int {
	if scale < lo {
		return lo
	}
	if hi > 0 && scale > hi {
		return hi
	}
	return scale
}
