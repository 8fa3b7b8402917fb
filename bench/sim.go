package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"profileme/internal/bpred"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/profile"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// simQuantum is the slice of simulated cycles one latency sample covers:
// the pipeline is advanced with RunFor(simQuantum) and each call's host
// time is one op_p* sample, so a GC pause or a slow kernel shows in the
// tail while ops_per_s stays the whole-pass rate.
const simQuantum = 20_000

// traceProbeRecords caps the sim.Trace stream the mem/bpred/core probes
// replay (the stream is held in memory).
const traceProbeRecords = 200_000

type kernel struct {
	name     string
	prog     *isa.Program
	executed uint64 // sim.Machine's executed count: what the pipeline must retire
}

// simRunner is the sim_stall / sim_ilp harness: cpu.Pipeline + ProfileMe
// over a fixed kernel set at one sampling configuration.
type simRunner struct {
	kernels []kernel
	ucfg    core.Config // Seed is filled per kernel
	ccfg    cpu.Config
	quantum int64 // simQuantum; smaller at the smoke size, where a pass is short
}

func setupSimStall(e *env) (harness, error) {
	// The pmsim defaults: single sampling, S=512, buffer 8, geometric.
	scale := 400_000
	if e.smoke {
		scale = 8_000
	}
	return setupSim(e, stallKernels, scale, core.Config{
		MeanInterval: 512, Window: 80, BufferDepth: 8,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric,
	})
}

func setupSimILP(e *env) (harness, error) {
	// The Figure 7 configuration: paired sampling S=40, W=80, buffer 8.
	scale := 1_000_000
	if e.smoke {
		scale = 10_000
	}
	return setupSim(e, ilpKernels, scale, core.Config{
		Paired: true, MeanInterval: 40, Window: 80, BufferDepth: 8,
		CountMode: core.CountInstructions, IntervalMode: core.IntervalGeometric,
	})
}

func setupSim(e *env, names []string, scale int, ucfg core.Config) (harness, error) {
	r := &simRunner{ucfg: ucfg, ccfg: cpu.DefaultConfig(), quantum: simQuantum}
	if e.smoke {
		r.quantum = simQuantum / 10
	}
	for _, name := range names {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		prog := b.BuildSeeded(scale, e.derive("data/"+name, 0))
		executed, err := sim.New(prog).Run(0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: functional run: %w", name, err)
		}
		r.kernels = append(r.kernels, kernel{name: name, prog: prog, executed: executed})
	}
	return r, nil
}

func (r *simRunner) close() {}

// pass is the outcome of one pipeline run over one kernel.
type pass struct {
	res   cpu.Result
	pipe  *cpu.Pipeline
	unit  *core.Unit  // nil for an unsampled pass
	db    *profile.DB // nil for an unsampled pass
	hostS float64
}

// runKernel simulates one kernel. sampled attaches the ProfileMe unit
// at the workload's configuration; quanta, when non-nil, receives the
// host milliseconds of each RunFor(simQuantum) slice.
func (r *simRunner) runKernel(e *env, k kernel, sampled, perPC bool, tr *tracer, quanta *[]float64) (pass, error) {
	ccfg := r.ccfg
	ccfg.TrackPerPC = perPC
	pipe, err := cpu.New(k.prog, sim.NewMachineSource(sim.New(k.prog), 0), ccfg)
	if err != nil {
		return pass{}, err
	}
	p := pass{pipe: pipe}
	spanName, runSpan := "cpu.run.unsampled", -1
	if sampled {
		spanName = "cpu.run.sampled"
		ucfg := r.ucfg
		ucfg.Seed = e.derive("sampling/"+k.name, 0)
		if p.unit, err = core.NewUnit(ucfg); err != nil {
			return pass{}, err
		}
		window := 0
		if ucfg.Paired {
			window = ucfg.Window
		}
		p.db = profile.NewDB(ucfg.MeanInterval, window, ccfg.SustainedIssueWidth)
		handler := p.db.Handler()
		if tr != nil {
			// The handler is the profile layer's entry point: wrap it so
			// profile.add is timed from outside.
			inner := handler
			handler = func(ss []core.Sample) {
				id := tr.begin("profile.add", k.name, runSpan)
				inner(ss)
				tr.end(id, int64(len(ss)))
			}
		}
		pipe.AttachProfileMe(p.unit, handler)
	}

	// A correct pipeline drains well inside this bound; the cap turns a
	// livelock into an error instead of a hung benchmark (RunFor has no
	// watchdog of its own).
	cycleCap := int64(k.executed)*200 + 10_000_000
	runSpan = tr.begin(spanName, k.name, -1)
	t0 := time.Now()
	last := t0
	for !pipe.RunFor(r.quantum) {
		if quanta != nil {
			now := time.Now()
			*quanta = append(*quanta, now.Sub(last).Seconds()*1e3)
			last = now
		}
		if pipe.Cycle() > cycleCap {
			return pass{}, fmt.Errorf("%s: %w after %d cycles", k.name, cpu.ErrCycleLimit, pipe.Cycle())
		}
	}
	p.res = pipe.Finish()
	p.hostS = time.Since(t0).Seconds()
	tr.end(runSpan, int64(p.res.Retired))
	if p.unit != nil {
		p.db.RecordLoss(p.unit.Stats().Lost())
	}
	return p, nil
}

// checkPass runs the per-pass output oracles.
func (r *simRunner) checkPass(o *outcome, k kernel, p pass, wantCycles int64) {
	o.check(p.res.Retired == k.executed, "%s: pipeline retired %d, sim.Machine executed %d", k.name, p.res.Retired, k.executed)
	if wantCycles > 0 {
		o.check(p.res.Cycles == wantCycles, "%s: repeated pass took %d cycles, first took %d", k.name, p.res.Cycles, wantCycles)
	}
	if p.unit != nil {
		st := p.unit.Stats()
		delivered := p.db.Samples() + p.db.CorruptRejected()
		o.check(delivered+st.Lost() == st.Captured(), "%s: delivered %d + lost %d != captured %d", k.name, delivered, st.Lost(), st.Captured())
	}
}

// warm runs one untimed unsampled pass over the kernel set: a pipeline
// run allocates hundreds of MB per million instructions, and the first
// passes of a process pay for growing the heap to hold that.
func (r *simRunner) warm(e *env) error {
	for _, k := range r.kernels {
		if _, err := r.runKernel(e, k, false, false, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// measure runs sampled passes over the kernel set until the budget is
// spent (at least three rounds, after an untimed warm-up pass). One
// operation is 1000 simulated instructions retired; ops_per_s is the
// median over rounds.
func (r *simRunner) measure(e *env) (*outcome, error) {
	o := newOutcome()
	if err := r.warm(e); err != nil {
		return nil, err
	}
	var perRound []float64
	var quanta [][]float64 // per round: host ms of each RunFor slice
	firstCycles := map[string]int64{}
	start := time.Now()
	for round := 0; ; round++ {
		var retired uint64
		quanta = append(quanta, nil)
		t0 := time.Now()
		for _, k := range r.kernels {
			p, err := r.runKernel(e, k, true, false, nil, &quanta[round])
			if err != nil {
				return nil, err
			}
			r.checkPass(o, k, p, firstCycles[k.name])
			firstCycles[k.name] = p.res.Cycles
			retired += p.res.Retired
		}
		dt := time.Since(t0).Seconds()
		perRound = append(perRound, float64(retired)/1e3/dt)
		o.attempted += int64(len(quanta[round]))
		if round+1 == heapAfterRounds {
			o.metrics["live_heap_mb"] = liveHeapMB()
		}
		if !moreRounds(round+1, time.Since(start).Seconds(), dt, e.seconds) {
			break
		}
	}
	throughputSummary(o, perRound)
	latencySummary(o, quanta)
	return o, nil
}

// throughputSummary reports the median round and lists every round.
func throughputSummary(o *outcome, perRound []float64) {
	o.metrics["ops_per_s"] = median(perRound)
	for i, v := range perRound {
		o.detail[fmt.Sprintf("ops_per_s.round%02d", i)] = v
	}
}

// heapAfterRounds is when a closed-loop workload samples live_heap_mb:
// after a fixed amount of work, so a faster system that fits more rounds
// into the budget is not charged for the extra ledger it accumulates.
const heapAfterRounds = 3

// moreRounds decides whether a closed-loop workload starts another round
// of fixed work: always heapAfterRounds, then as many as fit the budget.
func moreRounds(done int, elapsed, lastRound, budget float64) bool {
	if done < heapAfterRounds {
		return true
	}
	return elapsed+lastRound <= budget
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// share accumulates a part of a whole across kernels.
type share struct{ part, whole uint64 }

func (s *share) add(part, whole uint64) { s.part, s.whole = s.part+part, s.whole+whole }

func (s share) pct() float64 {
	if s.whole == 0 {
		return 0
	}
	return 100 * float64(s.part) / float64(s.whole)
}

// accuracy accumulates the paper's accuracy claim across kernels: sampled
// estimates against the simulator's own per-PC ground truth.
type accuracy struct {
	absErr, retired      float64 // Σ|estimated − true| retire counts, Σ true
	sampledLat, sampledN float64 // Σ sampled fetch→retire latency, samples
	groundLat            float64 // Σ true fetch→retire latency (over retired)
}

// add folds in one sampled pass run with TrackPerPC. A PC's retire count
// is estimated as k·S_eff·loss-correction from its k retired samples.
func (a *accuracy) add(p pass) {
	st := p.unit.Stats()
	captured := float64(st.Captured() * uint64(p.unit.Ways()))
	var delivered float64
	for _, pc := range p.db.PCs() {
		delivered += float64(p.db.Get(pc).Samples)
	}
	if delivered == 0 {
		return
	}
	// CountInstructions selects among on-path fetches only.
	sEff := float64(p.res.FetchedOnPath) / captured
	corr := captured / delivered
	for _, gt := range p.pipe.PerPC() {
		est := 0.0
		if acc := p.db.Get(gt.PC); acc != nil {
			est = float64(acc.Retired()) * sEff * corr
			for i := 0; i < profile.NumLatencyKinds; i++ {
				a.sampledLat += float64(acc.LatSum[i])
			}
			a.sampledN += float64(acc.LatCount[profile.NumLatencyKinds-1])
		}
		a.absErr += math.Abs(est - float64(gt.Retired))
		a.retired += float64(gt.Retired)
		a.groundLat += float64(gt.LatFetchRetire)
	}
}

func (a accuracy) estErrPct() float64 {
	if a.retired == 0 {
		return 0
	}
	return 100 * a.absErr / a.retired
}

func (a accuracy) latErrPct() float64 {
	if a.sampledN == 0 || a.groundLat == 0 {
		return 0
	}
	truth := a.groundLat / a.retired
	return 100 * math.Abs(a.sampledLat/a.sampledN-truth) / truth
}

// layers is the traced run: each layer driven alone, from outside.
func (r *simRunner) layers(e *env) (*outcome, error) {
	o := newOutcome()
	tr := e.tr
	if err := r.warm(e); err != nil {
		return nil, err
	}

	// sim: the functional machine alone.
	for _, k := range r.kernels {
		id := tr.begin("sim.run", k.name, -1)
		n, err := sim.New(k.prog).Run(0, nil)
		tr.end(id, int64(n))
		if err != nil {
			return nil, err
		}
	}
	o.metrics["sim.step_ns"] = tr.perOp("sim.run")

	// cpu: the unsampled pass, with the allocation delta around it, and
	// the modelled design's own statistics after it.
	var (
		unsampledCycles, retired, mispredicts, replays uint64
		wasted, emptyFetch, icache, dcache, l2, bp     share
		before, after                                  runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	for _, k := range r.kernels {
		p, err := r.runKernel(e, k, false, false, tr, nil)
		if err != nil {
			return nil, err
		}
		r.checkPass(o, k, p, 0)
		o.metrics["cpu."+k.name+".ns_per_inst"] = p.hostS * 1e9 / float64(p.res.Retired)
		o.metrics["cpu."+k.name+".cycles"] = float64(p.res.Cycles)
		unsampledCycles += uint64(p.res.Cycles)
		retired += p.res.Retired
		mispredicts += p.res.Mispredicts
		replays += p.res.ReplayTraps
		wasted.add(p.res.IssuedWasted, p.res.IssuedUseful+p.res.IssuedWasted)
		emptyFetch.add(p.res.EmptyFetchSlots, p.res.EmptyFetchSlots+p.res.FetchedOnPath+p.res.FetchedOffPath)
		h := p.pipe.Hierarchy()
		acc, miss := h.ICache().Stats()
		icache.add(miss, acc)
		acc, miss = h.DCache().Stats()
		dcache.add(miss, acc)
		acc, miss = h.L2().Stats()
		l2.add(miss, acc)
		acc, miss = p.pipe.Predictor().Accuracy()
		bp.add(miss, acc)
	}
	runtime.ReadMemStats(&after)
	minst := float64(retired) / 1e6
	o.metrics["cpu.alloc_mb_per_minst"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / minst
	o.metrics["cpu.allocs_per_minst"] = float64(after.Mallocs-before.Mallocs) / minst
	o.metrics["cpu.mispredicts"] = float64(mispredicts)
	o.metrics["cpu.replay_traps"] = float64(replays)
	o.metrics["cpu.issued_wasted_share"] = wasted.pct()
	o.metrics["cpu.empty_fetch_share"] = emptyFetch.pct()
	o.metrics["mem.icache_miss_rate"] = icache.pct()
	o.metrics["mem.dcache_miss_rate"] = dcache.pct()
	o.metrics["mem.l2_miss_rate"] = l2.pct()
	o.metrics["bpred.mispredict_rate"] = bp.pct()

	// The end-to-end pass, untraced then traced: the difference is what
	// the spans themselves cost.
	var plainS, tracedS float64
	var quanta []float64
	for _, k := range r.kernels {
		p, err := r.runKernel(e, k, true, false, nil, &quanta)
		if err != nil {
			return nil, err
		}
		plainS += p.hostS
	}
	var (
		sampledCycles, samples, lost uint64
		useless                      share
		acc                          accuracy
	)
	for _, k := range r.kernels {
		p, err := r.runKernel(e, k, true, true, tr, nil)
		if err != nil {
			return nil, err
		}
		r.checkPass(o, k, p, 0)
		tracedS += p.hostS
		sampledCycles += uint64(p.res.Cycles)
		st := p.unit.Stats()
		samples += st.SamplesBuffered
		lost += st.Lost()
		useless.add(st.EmptySelected+st.OffPath, st.Selected)
		acc.add(p)
	}
	o.metrics["core.samples"] = float64(samples)
	o.metrics["core.lost"] = float64(lost)
	o.metrics["core.useless_share"] = useless.pct()
	o.metrics["profile.add_ns"] = tr.perOp("profile.add")
	o.metrics["profile.est_err_pct"] = acc.estErrPct()
	o.metrics["profile.lat_err_pct"] = acc.latErrPct()
	o.metrics["cpu.dilation_pct"] = 100 * (float64(sampledCycles) - float64(unsampledCycles)) / float64(unsampledCycles)
	o.metrics["bench.trace_overhead_pct"] = 100 * (tracedS - plainS) / plainS
	opLatency(o, quanta)

	// mem, bpred, core: replay the kernel's address and branch stream
	// through each component alone.
	for _, k := range r.kernels {
		recs, err := sim.Trace(k.prog, traceProbeRecords)
		if err != nil {
			return nil, err
		}
		r.probeComponents(e, k, recs)
	}
	o.metrics["mem.data_ns"] = tr.perOp("mem.data")
	o.metrics["mem.fetch_ns"] = tr.perOp("mem.fetch")
	o.metrics["bpred.cond_ns"] = tr.perOp("bpred.cond")
	o.metrics["core.onfetch_ns"] = tr.perOp("core.onfetch")

	o.metrics["bench.failed_share"] = float64(o.failed) / float64(o.attempted)
	tr.count("cpu.unsampled_cycles", float64(unsampledCycles))
	tr.count("cpu.sampled_cycles", float64(sampledCycles))
	tr.count("core.samples", float64(samples))
	return o, nil
}

// probeComponents replays one kernel's correct-path stream through the
// memory hierarchy, the branch predictor and the sampling unit, each on
// its own, one span per component.
func (r *simRunner) probeComponents(e *env, k kernel, recs []sim.Record) {
	tr := e.tr
	h := mem.NewHierarchy(r.ccfg.Mem)
	id := tr.begin("mem.fetch", k.name, -1)
	for i := range recs {
		h.Fetch(recs[i].PC)
	}
	tr.end(id, int64(len(recs)))

	var memOps int64
	id = tr.begin("mem.data", k.name, -1)
	for i := range recs {
		if recs[i].Inst.Op.IsMem() {
			h.Data(recs[i].EA)
			memOps++
		}
	}
	tr.end(id, memOps)

	bp := bpred.MustNew(r.ccfg.Bpred)
	var conds int64
	id = tr.begin("bpred.cond", k.name, -1)
	for i := range recs {
		if recs[i].Inst.Op.IsConditional() {
			hist := bp.History()
			bp.PredictCond(recs[i].PC)
			bp.UpdateCond(recs[i].PC, recs[i].Taken, hist)
			bp.PushHistory(recs[i].Taken)
			conds++
		}
	}
	tr.end(id, conds)

	ucfg := r.ucfg
	ucfg.Seed = e.derive("sampling/"+k.name, 0)
	unit := core.MustNewUnit(ucfg)
	id = tr.begin("core.onfetch", k.name, -1)
	for i := range recs {
		cycle := int64(i)
		tag := unit.OnFetch(cycle, recs[i].PC, true, true, 0, 0, 0)
		if tag != core.NoTag {
			for st := core.StageMap; st < core.StageRetire; st++ {
				unit.SetStage(tag, st, cycle+int64(st))
			}
			unit.Complete(tag, true, core.TrapNone, cycle+int64(core.StageRetire))
		}
		if unit.InterruptPending() {
			unit.Recycle(unit.Drain())
		}
	}
	tr.end(id, int64(len(recs)))
}
