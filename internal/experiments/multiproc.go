package experiments

import (
	"fmt"
	"math"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/mem"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// multiprocessConfig parameterizes the context-register demonstration:
// two processes time-sliced on one core, sharing the memory hierarchy and
// one ProfileMe unit.
type multiprocessConfig struct {
	BenchA, BenchB string
	Scale          int
	Quantum        int64 // cycles per scheduling quantum
	MeanInterval   float64
}

// defaultMultiprocessConfig co-runs compress (whose 64 KB working set
// exactly fits the D-cache alone) with vortex (a 256 KB record store), so
// the shared D-cache genuinely thrashes across quanta.
func defaultMultiprocessConfig(quick bool) multiprocessConfig {
	return multiprocessConfig{
		BenchA: "compress", BenchB: "vortex",
		Scale: pick(quick, 250_000, 120_000), Quantum: 2_000, MeanInterval: 300,
	}
}

// multiprocessResult reports sample demultiplexing and cache interference.
type multiprocessResult struct {
	Config multiprocessConfig
	// SamplesA/B: samples routed to each context by the Profiled Context
	// Register. Stray counts samples with any other context value.
	SamplesA, SamplesB, Stray uint64
	// BiasA: median per-PC retire-estimate deviation for process A's hot
	// instructions, computed from its demultiplexed samples only. The
	// two programs' PC ranges overlap, so without the context register
	// this analysis would be impossible.
	BiasA float64
	// Interference: co-scheduled CPI over solo CPI for each process
	// (> 1 means the shared caches hurt, as they should).
	InterferenceA, InterferenceB float64
	SoloCPIA, CoCPIA             float64
	SoloCPIB, CoCPIB             float64
}

// multiprocess reproduces the §4.1.3 context-register story: samples from
// a time-sliced system carry the address-space number of the process that
// executed the instruction, so one sample stream demultiplexes cleanly
// into per-process profiles, even though the processes' PC spaces overlap
// completely.
func multiprocess(cfg multiprocessConfig) (*multiprocessResult, error) {
	benchA, ok := workload.ByName(cfg.BenchA)
	if !ok {
		return nil, fmt.Errorf("multiproc: unknown benchmark %q", cfg.BenchA)
	}
	benchB, ok := workload.ByName(cfg.BenchB)
	if !ok {
		return nil, fmt.Errorf("multiproc: unknown benchmark %q", cfg.BenchB)
	}
	const (
		asnA = 101
		asnB = 202
	)
	res := &multiprocessResult{Config: cfg}

	// Solo runs for the interference baseline.
	solo := func(b workload.Benchmark, asn uint64) (cpu.Result, error) {
		prog := b.Build(cfg.Scale)
		ccfg := cpu.DefaultConfig()
		ccfg.Context = asn
		pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), ccfg)
		if err != nil {
			return cpu.Result{}, err
		}
		return pipe.Run(0)
	}
	soloA, err := solo(benchA, asnA)
	if err != nil {
		return nil, err
	}
	soloB, err := solo(benchB, asnB)
	if err != nil {
		return nil, err
	}
	res.SoloCPIA, res.SoloCPIB = soloA.CPI(), soloB.CPI()

	// Co-run: one shared hierarchy, one ProfileMe unit, two pipelines
	// time-sliced by a round-robin scheduler — a wiring runner.RunShard (a
	// unit per pipeline) cannot make. The per-process databases take
	// RunShard's (S, W, C): unpaired, so W = 0.
	ccfgA := cpu.DefaultConfig()
	ccfgA.Context = asnA
	ccfgA.InterruptCost = 0
	ccfgB := ccfgA
	ccfgB.Context = asnB
	ccfgB.PhysBase = 0x4000_0000 // disjoint physical pages for process B
	hier := mem.NewHierarchy(ccfgA.Mem)
	unit := core.MustNewUnit(core.Config{
		MeanInterval: cfg.MeanInterval, Window: 80, BufferDepth: 16,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric, Seed: 12,
	})
	dbA := profile.NewDB(cfg.MeanInterval, 0, ccfgA.SustainedIssueWidth)
	dbB := profile.NewDB(cfg.MeanInterval, 0, ccfgB.SustainedIssueWidth)
	handler := func(ss []core.Sample) {
		for _, s := range ss {
			if s.First.Events.Has(core.EvNoInstruction) {
				continue
			}
			switch s.First.Context {
			case asnA:
				dbA.Add(s)
				res.SamplesA++
			case asnB:
				dbB.Add(s)
				res.SamplesB++
			default:
				res.Stray++
			}
		}
	}

	progA, progB := benchA.Build(cfg.Scale), benchB.Build(cfg.Scale)
	pipeA, err := cpu.NewWithHierarchy(progA, sim.NewMachineSource(sim.New(progA), 0), ccfgA, hier)
	if err != nil {
		return nil, err
	}
	pipeB, err := cpu.NewWithHierarchy(progB, sim.NewMachineSource(sim.New(progB), 0), ccfgB, hier)
	if err != nil {
		return nil, err
	}
	pipeA.AttachProfileMe(unit, handler)
	pipeB.AttachProfileMe(unit, handler)

	doneA, doneB := false, false
	for !doneA || !doneB {
		if !doneA {
			doneA = pipeA.RunFor(cfg.Quantum)
		}
		if !doneB {
			doneB = pipeB.RunFor(cfg.Quantum)
		}
	}
	coA, coB := pipeA.Finish(), pipeB.Finish()
	res.CoCPIA, res.CoCPIB = coA.CPI(), coB.CPI()
	if res.SoloCPIA > 0 {
		res.InterferenceA = res.CoCPIA / res.SoloCPIA
	}
	if res.SoloCPIB > 0 {
		res.InterferenceB = res.CoCPIB / res.SoloCPIB
	}

	// Validate A's demultiplexed profile against A's own exact profile.
	// The shared unit's losses cannot be split by process and A's database
	// records none, so its realized interval is per sample of its own.
	s := dbA.Realize(coA.FetchedOnPath)
	rows := profile.Join(dbA, runner.Exact(pipeA), (*profile.PCAccum).Retired, s)
	var devs []float64
	for _, r := range rows {
		if r.Truth*100 >= coA.Retired {
			devs = append(devs, math.Abs(r.Estimate/float64(r.Truth)-1))
		}
	}
	res.BiasA = stats.Quantile(devs, 0.5)
	return res, nil
}

// Check verifies: every sample carries one of the two context values, the
// demultiplexed profile matches its process's ground truth, and the
// shared caches produce measurable interference.
func (r *multiprocessResult) Check() error {
	if err := checkf(r.Stray == 0,
		"multiproc: %d samples with stray context values", r.Stray); err != nil {
		return err
	}
	if err := checkf(r.SamplesA > 50 && r.SamplesB > 50,
		"multiproc: too few samples (%d / %d)", r.SamplesA, r.SamplesB); err != nil {
		return err
	}
	if err := checkf(r.BiasA < 0.35,
		"multiproc: demultiplexed profile median bias %.2f", r.BiasA); err != nil {
		return err
	}
	return checkf(r.InterferenceA > 1.02 || r.InterferenceB > 1.02,
		"multiproc: no cache interference (%.2f / %.2f)", r.InterferenceA, r.InterferenceB)
}

// Render prints the demultiplexing and interference summary.
func (r *multiprocessResult) Render() string {
	var b strings.Builder
	b.WriteString("Multiprocess profiling (§4.1.3 Profiled Context Register)\n")
	fmt.Fprintf(&b, "samples: %s=%d, %s=%d, stray=%d\n",
		r.Config.BenchA, r.SamplesA, r.Config.BenchB, r.SamplesB, r.Stray)
	fmt.Fprintf(&b, "%s: solo CPI %.2f -> co-run CPI %.2f (x%.2f)\n",
		r.Config.BenchA, r.SoloCPIA, r.CoCPIA, r.InterferenceA)
	fmt.Fprintf(&b, "%s: solo CPI %.2f -> co-run CPI %.2f (x%.2f)\n",
		r.Config.BenchB, r.SoloCPIB, r.CoCPIB, r.InterferenceB)
	fmt.Fprintf(&b, "median per-PC bias of %s's demultiplexed profile: %.2f\n",
		r.Config.BenchA, r.BiasA)
	return b.String()
}

// CSV renders the comparison rows.
func (r *multiprocessResult) CSV() string {
	var b strings.Builder
	b.WriteString("process,samples,solo_cpi,co_cpi,interference\n")
	fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f\n", r.Config.BenchA, r.SamplesA, r.SoloCPIA, r.CoCPIA, r.InterferenceA)
	fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f\n", r.Config.BenchB, r.SamplesB, r.SoloCPIB, r.CoCPIB, r.InterferenceB)
	return b.String()
}
