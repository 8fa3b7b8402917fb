package cpu

import (
	"context"
	"errors"
	"fmt"

	"profileme/internal/bpred"
	"profileme/internal/core"
	"profileme/internal/counters"
	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/sim"
)

type uopState uint8

const (
	stFetched uopState = iota
	stMapped
	stIssued
	stCompleted
	stRetired
	stSquashed
)

// uop is one in-flight instruction.
type uop struct {
	seq    uint64 // fetch order, including wrong-path instructions
	pc     uint64
	inst   isa.Inst
	class  isa.Class
	onPath bool

	// What the trace record says happened; valid iff onPath.
	recSeq    uint64 // correct-path sequence number
	recTarget uint64 // PC of the next executed instruction
	recTaken  bool   // control only: did it redirect the PC?

	tag int // ProfileMe tag, or core.NoTag

	// Rename state.
	src     [2]pregID
	nsrc    int
	dst     pregID
	oldDst  pregID
	archDst isa.Reg

	// Prediction state (control instructions).
	predNext    uint64
	predTaken   bool
	mispred     bool // on-path only: predicted next PC != actual
	histAtFetch uint64
	rasAfter    int // RAS depth after this instruction's fetch-time effect

	// Timing.
	fetchCyc, mapCyc, readyCyc, issueCyc, completeCyc, retireCyc int64
	valueCyc                                                     int64  // loads: value arrival
	dstGen                                                       uint32 // dst generation at allocation

	state  uopState
	events core.Event
	fp     bool
	ea     uint64
	eaOK   bool

	robIdx int32 // ring slot in Pipeline.rob, valid while mapped or later

	waiting uint8 // sources not yet ready while mapped (see Pipeline.wake)
	pending uint8 // event-ring entries completeStage has not yet visited (see Pipeline.release)
}

// Pipeline is the timing simulator for one program run.
type Pipeline struct {
	cfg  Config
	prog *isa.Program
	win  *traceWindow
	pred *bpred.Predictor
	hier *mem.Hierarchy
	ren  *renamer

	rob      []*uop // ring buffer
	robHead  int
	robCount int

	// The issue queues. iqIntN and iqFPN count the mapped uops of each
	// class (what fills a queue); rdyInt and rdyFP hold the ones whose
	// sources are all ready, oldest first, and are all issue looks at.
	iqIntN, iqFPN int
	rdyInt        []*uop
	rdyFP         []*uop

	// fetchBuf is a head-indexed deque: fetchBuf[fetchHead:] are the live
	// entries. Popping advances fetchHead (no reslicing away front
	// capacity); when the buffer empties, both reset so the backing array
	// is reused forever.
	fetchBuf  []*uop
	fetchHead int

	// arena carves uops out of uopChunk-sized blocks; free holds the ones
	// release handed back, which newUop reuses first.
	arena  []uop
	arenaN int
	free   []*uop

	// Fetch state.
	nextSeq         uint64
	offPath         bool
	offPC           uint64
	fetchStallUntil int64
	fetchLine       uint64 // current I-cache line (+1; 0 = none)
	pendingFetchEv  core.Event
	traceDone       bool

	cycle      int64
	seqCounter uint64

	completing *eventRing // functional-unit completion events
	wakeups    *eventRing // load value-arrival events
	divBusy    int64

	prof        *core.Unit
	profHandler func([]core.Sample)
	ctrs        *counters.Unit
	observe     func(Leave)

	// Fault injection (delivery-side) and the retire-progress watchdog.
	faults         FaultInjector
	intHoldUntil   int64
	intHoldDecided bool
	lastProgress   int64 // last cycle an instruction retired

	finished bool // finish() ran (guards double finalization)

	res    Result
	pcs    *perPC
	wasted *wastedTracker
}

// New builds a pipeline for prog, consuming the correct-path stream src.
func New(prog *isa.Program, src sim.Source, cfg Config) (*Pipeline, error) {
	return NewWithHierarchy(prog, src, cfg, nil)
}

// NewWithHierarchy builds a pipeline that charges memory accesses against
// an externally owned hierarchy (nil means a private one). Sharing a
// hierarchy between pipelines models time-sliced processes contending for
// the same caches and TLBs. The hierarchy must be built from cfg.Mem: its
// latencies bound how far ahead the pipeline schedules events.
func NewWithHierarchy(prog *isa.Program, src sim.Source, cfg Config, hier *mem.Hierarchy) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		hier = mem.NewHierarchy(cfg.Mem)
	}
	// Ring span: the longest latency any event can be scheduled at — the
	// slowest functional unit or a worst-case memory round trip (TLB fill
	// plus a miss all the way to memory).
	span := cfg.Mem.TLBPenalty + cfg.Mem.DCache.HitLatency + cfg.Mem.L2Latency + cfg.Mem.MemLatency
	for _, l := range [...]int{cfg.Lat.IntALU, cfg.Lat.IntMul, cfg.Lat.FAdd,
		cfg.Lat.FDiv, cfg.Lat.Branch, cfg.Lat.Store, cfg.Mem.DCache.HitLatency} {
		if l > span {
			span = l
		}
	}
	p := &Pipeline{
		cfg:        cfg,
		prog:       prog,
		win:        newTraceWindow(src),
		pred:       bpred.MustNew(cfg.Bpred),
		hier:       hier,
		ren:        newRenamer(cfg.PhysRegs),
		rob:        make([]*uop, cfg.ROBSize),
		rdyInt:     make([]*uop, 0, cfg.IQInt),
		rdyFP:      make([]*uop, 0, cfg.IQFP),
		completing: newEventRing(span),
		wakeups:    newEventRing(span),
	}
	if cfg.TrackPerPC {
		p.pcs = newPerPC(prog.Len())
	}
	if cfg.TrackWastedSlots {
		p.wasted = newWastedTracker(cfg.SustainedIssueWidth, p.wastedSink)
	}
	return p, nil
}

// AttachProfileMe plugs the ProfileMe unit into the pipeline. handler is
// the profiling software's interrupt handler; it runs when the unit's
// interrupt is delivered, and fetch is frozen for Config.InterruptCost
// cycles to model the delivery cost.
//
// The sample slice passed to handler is only valid for the duration of
// the call: its backing storage is recycled for the next buffer fill
// (core.Unit.Recycle). Handlers that keep samples must copy the Sample
// values out (e.g. append(dst, ss...)), never retain the slice itself.
func (p *Pipeline) AttachProfileMe(u *core.Unit, handler func([]core.Sample)) {
	p.prof = u
	p.profHandler = handler
}

// AttachCounters plugs baseline event-counter hardware into the pipeline.
func (p *Pipeline) AttachCounters(u *counters.Unit) { p.ctrs = u }

// Leave is one fetched instruction leaving the pipeline, retired or
// squashed. Its Record is the one record at leave that a ProfileMe tag on
// the instruction delivers too, FetchSeq aside: the cycle it left is
// StageCycle[core.StageRetire].
type Leave struct {
	core.Record
	RecSeq uint64 // correct-path sequence number; valid when Retired()
	Slot   int    // ROB slot it occupied; -1 if squashed before it was mapped
}

// Observe installs fn, called once for every fetched instruction, on the
// correct path or the wrong one, when it leaves: retirements in program
// order, squashes as they happen. Each ROB slot's occupants leave in the
// order they were mapped into it. A run that drains reports every fetched
// instruction; one stopped early leaves its in-flight ones unreported. A
// load that retires before its value arrives is reported at retirement,
// so its LoadComplete is unset (its tag's sample, delivered later, has
// it). nil detaches.
func (p *Pipeline) Observe(fn func(Leave)) { p.observe = fn }

// FaultInjector is the delivery-side fault hook (internal/faultinject
// implements it alongside core.FaultInjector). Methods must be
// deterministic given the plan's seed; a nil injector is fault-free.
type FaultInjector interface {
	// HoldInterrupt is consulted once each time a ProfileMe interrupt
	// becomes deliverable; it returns how many cycles delivery is
	// withheld (0 = deliver normally). While withheld, the Unit keeps
	// sampling into a full buffer and sheds or overwrites samples.
	HoldInterrupt() int64
}

// AttachFaults arms a delivery-side fault plan (nil detaches). Attach the
// same plan to the core.Unit so one seeded stream drives both layers.
func (p *Pipeline) AttachFaults(fi FaultInjector) { p.faults = fi }

// Hierarchy exposes the memory hierarchy (tests, cache-warming).
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// Predictor exposes the branch predictor (tests).
func (p *Pipeline) Predictor() *bpred.Predictor { return p.pred }

// PerPC returns the ground-truth per-instruction statistics (nil unless
// Config.TrackPerPC).
func (p *Pipeline) PerPC() []PCStats {
	if p.pcs == nil {
		return nil
	}
	return p.pcs.stats
}

// ErrCycleLimit reports that Run hit its cycle budget before the program
// drained.
var ErrCycleLimit = errors.New("cpu: cycle limit reached")

// ErrLivelock reports that the retire-progress watchdog fired: no
// instruction retired for Config.WatchdogCycles cycles, whether or not any
// were in flight. A correct pipeline never livelocks, so this converts a
// would-be infinite Run loop (a simulator bug, a pathological
// injected-fault interaction, or a profiling-interrupt storm that keeps
// fetch frozen) into a typed error with the machine state finalized.
var ErrLivelock = errors.New("cpu: pipeline livelock")

// ErrCanceled reports that RunContext's context was canceled or its
// deadline expired before the program drained. The pipeline is finalized
// and the partial Result is valid — a supervisor can still harvest
// whatever profiling the run accumulated, or retry.
var ErrCanceled = errors.New("cpu: run canceled")

// ctxCheckCycles is how many simulated cycles elapse between supervision
// checks in RunContext (context poll, cycle budget, watchdog): the inner
// loop runs a whole batch with nothing but step(), so supervision is off
// the per-cycle hot path entirely, yet cancellation still lands within a
// bounded (and, in real time, microsecond-scale) number of cycles.
const ctxCheckCycles = 1024

// Run simulates until the instruction stream is exhausted and the pipeline
// has drained, or maxCycles elapse (maxCycles <= 0 means no limit).
//
// A stream that ended because execution failed (sim.Source.Err: a runaway
// PC) is an error here too: the pipeline drains what it fetched, finalizes,
// and returns the partial Result with the stream's error wrapped, so a
// truncated run cannot pass for a clean one. RunFor / Finish callers drive
// the loop themselves and ask the source.
func (p *Pipeline) Run(maxCycles int64) (Result, error) {
	return p.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with real cancellation plumbed in: between cycle
// batches it checks ctx and, once the context is done, finalizes the
// machine state and returns the partial Result with an error matching
// ErrCanceled. A fleet supervisor uses this to impose per-job wall-clock
// deadlines and to hard-stop in-flight jobs during a drain.
//
// Supervision runs between batches of at most ctxCheckCycles cycles, so a
// cancellation is honored within ctxCheckCycles simulated cycles of the
// context firing, and the watchdog fires within ctxCheckCycles of its
// bound being crossed. Each batch is additionally clamped so it cannot
// overshoot maxCycles or sail past the earliest cycle the watchdog could
// trip (which keeps tiny WatchdogCycles settings exact).
func (p *Pipeline) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	done := ctx.Done()
	for !p.done() {
		if maxCycles > 0 && p.cycle >= maxCycles {
			p.finish()
			return p.res, fmt.Errorf("%w (%d)", ErrCycleLimit, maxCycles)
		}
		if err := p.watchdog(); err != nil {
			p.finish()
			return p.res, err
		}
		if done != nil {
			select {
			case <-done:
				p.finish()
				return p.res, fmt.Errorf("%w at cycle %d: %v", ErrCanceled, p.cycle, context.Cause(ctx))
			default:
			}
		}
		batch := p.cycle + ctxCheckCycles
		if maxCycles > 0 && batch > maxCycles {
			batch = maxCycles
		}
		if wd := int64(p.cfg.WatchdogCycles); wd > 0 {
			// Earliest cycle the watchdog could fire given progress so far;
			// re-derived each batch as retirement moves lastProgress.
			if deadline := p.lastProgress + wd + 1; deadline < batch {
				batch = deadline
			}
		}
		for p.cycle < batch && !p.done() {
			p.step()
		}
	}
	p.finish()
	if err := p.win.src.Err(); err != nil {
		return p.res, fmt.Errorf("cpu: instruction stream ended early: %w", err)
	}
	return p.res, nil
}

// watchdog reports ErrLivelock when nothing has retired for longer than
// the configured bound. An empty ROB is no progress: fetch frozen by
// back-to-back interrupt deliveries leaves it empty for good.
func (p *Pipeline) watchdog() error {
	if p.cfg.WatchdogCycles <= 0 {
		return nil
	}
	if p.cycle-p.lastProgress > int64(p.cfg.WatchdogCycles) {
		return fmt.Errorf("%w: no retirement for %d cycles at cycle %d (%d in flight)",
			ErrLivelock, p.cycle-p.lastProgress, p.cycle, p.robCount)
	}
	return nil
}

// RunFor advances the pipeline by up to cycles cycles and pauses without
// finalizing, so a scheduler can time-slice several pipelines (a frozen
// pipeline keeps all in-flight state). It reports whether the program has
// drained. After the last quantum, call Finish for the result.
func (p *Pipeline) RunFor(cycles int64) bool {
	target := p.cycle + cycles
	for p.cycle < target && !p.done() {
		p.step()
	}
	return p.done()
}

// Finish finalizes a RunFor-driven simulation (flushing pending profile
// state) and returns the result. Run calls it implicitly.
func (p *Pipeline) Finish() Result {
	p.finish()
	return p.res
}

// Cycle returns the pipeline's current cycle.
func (p *Pipeline) Cycle() int64 { return p.cycle }

func (p *Pipeline) done() bool {
	return p.traceDone && !p.offPath && p.robCount == 0 && p.fetchHead == len(p.fetchBuf)
}

func (p *Pipeline) finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.res.Cycles = p.cycle
	if p.prof != nil {
		// Retired loads whose value is still in flight have deferred
		// sample completion (§4.1.4): let those signals land before the
		// final flush so their records show the true retirement. The ring
		// drains in ascending cycle order, so the flush is deterministic.
		p.wakeups.drainAscending(p.cycle, func(cyc int64, u *uop) {
			if u.state == stRetired {
				u.valueCyc = cyc
				p.tagLeave(u, core.TrapNone)
			}
		})
		// A run stopped early still has tagged instructions in flight: their
		// partial records are delivered as never done.
		for i := 0; i < p.robCount; i++ {
			p.tagLeave(p.rob[p.robSlot(p.robHead+i)], core.TrapNeverDone)
		}
		for _, u := range p.fetchBuf[p.fetchHead:] {
			p.tagLeave(u, core.TrapNeverDone)
		}
		p.prof.FlushInFlight(p.cycle)
		// Drain even a partially filled buffer: the tail samples of the
		// run would otherwise never reach software.
		if p.prof.InterruptPending() || p.prof.Pending() > 0 {
			p.deliverProfileInterrupt()
		}
	}
	if p.wasted != nil {
		p.wasted.flush()
	}
}

// step advances one cycle: complete, retire, issue, map, fetch, interrupts.
func (p *Pipeline) step() {
	p.completeStage()
	p.retireStage()
	p.issueStage()
	p.mapStage()
	p.fetchStage()
	p.interruptStage()
	if p.wasted != nil {
		p.wasted.advance(p.cycle)
	}
	p.cycle++
}

// ---------------------------------------------------------------- fetch --

func (p *Pipeline) fetchStage() {
	if p.cycle < p.fetchStallUntil {
		p.presentEmpty(p.cfg.FetchWidth)
		return
	}
	lineMask := ^uint64(p.cfg.Mem.ICache.LineBytes - 1)
	slots := 0
	for slots < p.cfg.FetchWidth {
		if len(p.fetchBuf)-p.fetchHead >= p.cfg.FetchBuf {
			p.presentEmpty(p.cfg.FetchWidth - slots)
			return
		}
		pc, rec, haveInst := p.nextFetchPC()
		if !haveInst {
			p.presentEmpty(p.cfg.FetchWidth - slots)
			return
		}
		// Instruction cache: one access per line transition.
		if p.fetchLine != (pc&lineMask)+1 {
			res := p.hier.Fetch(pc + p.cfg.PhysBase)
			p.fetchLine = (pc & lineMask) + 1
			if res.L1Miss || res.TLBMiss {
				ev := core.Event(0)
				if res.L1Miss {
					ev |= core.EvICacheMiss
					if p.ctrs != nil {
						p.ctrs.Event(counters.EventICacheMiss, p.cycle)
					}
				}
				if res.TLBMiss {
					ev |= core.EvITBMiss
				}
				p.pendingFetchEv = ev
				p.fetchStallUntil = p.cycle + int64(res.Latency-p.cfg.Mem.ICache.HitLatency) + 1
				p.presentEmpty(p.cfg.FetchWidth - slots)
				return
			}
		}
		u := p.fetchOne(pc, rec)
		slots++
		// A predicted-taken control transfer ends the fetch block.
		if u.inst.Op.IsControl() && u.predTaken {
			p.fetchLine = 0
			if p.cfg.TakenBranchBubble > 0 {
				p.fetchStallUntil = p.cycle + 1 + int64(p.cfg.TakenBranchBubble)
			}
			p.presentEmpty(p.cfg.FetchWidth - slots)
			return
		}
		// Fetch blocks do not cross cache lines.
		if (pc+isa.InstBytes)&lineMask != pc&lineMask {
			p.fetchLine = 0
			p.presentEmpty(p.cfg.FetchWidth - slots)
			return
		}
	}
}

// nextFetchPC determines where the fetcher is pointed and, when on the
// correct path, the trace record to bind (nil on the wrong path). The
// record points into the trace window: it is valid until the window is
// next read or trimmed.
func (p *Pipeline) nextFetchPC() (pc uint64, rec *sim.Record, ok bool) {
	if p.offPath {
		if p.cfg.NoWrongPath {
			return 0, nil, false // ablation: fetcher idles
		}
		if _, valid := p.prog.At(p.offPC); !valid {
			return 0, nil, false // wrong path ran off the image
		}
		return p.offPC, nil, true
	}
	r := p.win.at(p.nextSeq)
	if r == nil {
		p.traceDone = true
		return 0, nil, false
	}
	return r.PC, r, true
}

// fetchOne creates the uop for one fetch slot, consults the predictor,
// notifies ProfileMe, and advances the fetch state. rec is the bound trace
// record, nil on the wrong path.
func (p *Pipeline) fetchOne(pc uint64, rec *sim.Record) *uop {
	onPath := rec != nil
	var inst isa.Inst
	if onPath {
		inst = rec.Inst
	} else {
		inst, _ = p.prog.At(pc)
	}

	// newUop's result is zeroed, so only non-zero fields are written — a
	// composite literal here would build the 240-byte struct on the stack
	// and copy it over memory that is already zero.
	u := p.newUop()
	u.seq, u.pc, u.inst, u.class = p.seqCounter, pc, inst, inst.Op.Class()
	u.onPath, u.tag = onPath, core.NoTag
	if onPath {
		u.recSeq, u.recTarget, u.recTaken = rec.Seq, rec.Target, rec.Taken
	}
	u.dst, u.oldDst = noPreg, noPreg
	u.fetchCyc = p.cycle
	u.mapCyc, u.readyCyc, u.issueCyc = -1, -1, -1
	u.completeCyc, u.retireCyc, u.valueCyc = -1, -1, -1
	u.histAtFetch = p.pred.History()
	p.seqCounter++
	u.fp = u.class == isa.ClassFAdd || u.class == isa.ClassFDiv
	u.events |= p.pendingFetchEv
	p.pendingFetchEv = 0

	// ProfileMe sees every fetch opportunity; capture happens before this
	// instruction's own history update.
	if p.prof != nil {
		u.tag = p.prof.OnFetch(p.cycle, pc, true, onPath, u.histAtFetch,
			p.pred.HistoryBits(), p.cfg.Context)
	}

	// Predict the next PC.
	u.predNext = pc + isa.InstBytes
	switch u.class {
	case isa.ClassJump:
		u.predNext, u.predTaken = inst.Target, true
	case isa.ClassCall:
		u.predNext, u.predTaken = inst.Target, true
		p.pred.RASPush(pc + isa.InstBytes)
	case isa.ClassBranch:
		u.predTaken = p.pred.PredictCond(pc)
		p.pred.PushHistory(u.predTaken)
		if u.predTaken {
			u.predNext = inst.Target
		}
	case isa.ClassRet:
		if t, ok := p.pred.RASPop(); ok {
			u.predNext, u.predTaken = t, true
		}
	case isa.ClassJmpInd:
		if t, ok := p.pred.BTBLookup(pc); ok {
			u.predNext, u.predTaken = t, true
		}
	}
	u.rasAfter = p.pred.RASDepth()

	// Effective addresses: real for on-path memory ops, synthesized for
	// wrong-path ones (they still probe the D-cache).
	if inst.Op.IsMem() {
		if onPath {
			u.ea, u.eaOK = rec.EA, true
		} else {
			u.ea = fakeEA(pc, u.seq)
			u.eaOK = true
		}
	}

	// Advance fetch state.
	if onPath {
		p.res.FetchedOnPath++
		if st := p.pcStats(pc); st != nil {
			st.Fetched++
		}
		p.nextSeq++
		if u.predNext != u.recTarget {
			u.mispred = true
			p.offPath = true
			p.offPC = u.predNext
		}
	} else {
		p.res.FetchedOffPath++
		p.offPC = u.predNext
	}

	p.fetchBuf = append(p.fetchBuf, u)
	return u
}

// fakeEA synthesizes a deterministic effective address for a wrong-path
// memory operation (8-byte aligned, in a high region so pollution is
// plausible but does not systematically alias the data segment).
func fakeEA(pc, seq uint64) uint64 {
	h := (pc*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9) >> 16
	return 0x40_0000 + (h&0xffff)*8
}

func (p *Pipeline) presentEmpty(n int) {
	p.res.EmptyFetchSlots += uint64(n)
	if p.prof == nil {
		return
	}
	// Empty-slot samples complete inside the unit.
	for i := 0; i < n; i++ {
		p.prof.OnFetch(p.cycle, 0, false, false, p.pred.History(),
			p.pred.HistoryBits(), p.cfg.Context)
	}
}

// ------------------------------------------------------------------ map --

func (p *Pipeline) mapStage() {
	mapped := 0
	for mapped < p.cfg.MapWidth && p.fetchHead < len(p.fetchBuf) && p.robCount < p.cfg.ROBSize {
		u := p.fetchBuf[p.fetchHead]
		queued := &p.iqIntN
		qmax := p.cfg.IQInt
		if u.fp {
			queued, qmax = &p.iqFPN, p.cfg.IQFP
		}
		if *queued >= qmax {
			u.events |= core.EvResourceStall
			break
		}
		d, needsDst := u.inst.Dest()
		if needsDst && p.ren.freeCount() == 0 {
			u.events |= core.EvResourceStall
			break
		}

		// Rename. A source still in flight gets u as a waiter; with none,
		// u is ready at once (and the youngest uop yet mapped).
		var srcs [2]isa.Reg
		ss := u.inst.Srcs(srcs[:0])
		u.nsrc = len(ss)
		for i, a := range ss {
			s := p.ren.lookup(a)
			u.src[i] = s
			if !p.ren.isReady(s) {
				u.waiting++
				p.ren.addWaiter(s, u)
			}
		}
		if needsDst {
			u.archDst = d
			u.dst, u.oldDst = p.ren.allocate(d)
			u.dstGen = p.ren.generation(u.dst)
		}

		u.mapCyc = p.cycle
		u.state = stMapped

		p.fetchHead++
		if p.fetchHead == len(p.fetchBuf) {
			p.fetchBuf = p.fetchBuf[:0]
			p.fetchHead = 0
		}
		*queued++
		if u.waiting == 0 {
			l := p.readyList(u)
			*l = append(*l, u)
		}
		p.robPush(u)
		mapped++
	}
}

// ---------------------------------------------------------------- issue --

func (p *Pipeline) issueStage() {
	intAvail, memAvail, fpAvail := p.cfg.IntUnits, p.cfg.MemPorts, p.cfg.FPUnits
	if p.cfg.InOrder {
		p.issueInOrder(&intAvail, &memAvail, &fpAvail)
		return
	}
	p.issueReady(&p.rdyInt, &intAvail, &memAvail, &fpAvail)
	p.issueReady(&p.rdyFP, &intAvail, &memAvail, &fpAvail)
}

// issueReady issues from one ready list oldest-first; what issues leaves
// the list.
func (p *Pipeline) issueReady(l *[]*uop, intAvail, memAvail, fpAvail *int) {
	kept := (*l)[:0]
	for _, u := range *l {
		if !p.tryIssue(u, intAvail, memAvail, fpAvail) {
			kept = append(kept, u)
		}
	}
	*l = kept
}

// issueInOrder walks the ROB oldest-first and stops at the first
// instruction that cannot issue: strict program-order issue (21164-like).
func (p *Pipeline) issueInOrder(intAvail, memAvail, fpAvail *int) {
	for i := 0; i < p.robCount; i++ {
		u := p.rob[p.robSlot(p.robHead+i)]
		switch u.state {
		case stSquashed, stIssued, stCompleted, stRetired:
			continue
		case stFetched:
			return // not yet mapped; younger cannot issue either
		}
		if u.waiting > 0 || !p.tryIssue(u, intAvail, memAvail, fpAvail) {
			return
		}
		// The oldest mapped uop heads its ready list.
		l := p.readyList(u)
		*l = append((*l)[:0], (*l)[1:]...)
	}
}

// readyList is the ready list u joins when its sources are all ready.
func (p *Pipeline) readyList(u *uop) *[]*uop {
	if u.fp {
		return &p.rdyFP
	}
	return &p.rdyInt
}

// wake counts down the waiters on a register whose value just arrived; a
// uop left waiting on nothing joins its ready list in age order. Dead
// references — a uop squashed since, or recycled for a later fetch — are
// skipped.
func (p *Pipeline) wake(ws []waiter) {
	for _, w := range ws {
		u := w.u
		if u.seq != w.seq || u.state != stMapped {
			continue
		}
		if u.waiting--; u.waiting > 0 {
			continue
		}
		l := p.readyList(u)
		*l = append(*l, u)
		i := len(*l) - 1
		for ; i > 0 && (*l)[i-1].seq > u.seq; i-- {
			(*l)[i] = (*l)[i-1]
		}
		(*l)[i] = u
	}
}

// tryIssue issues u, whose operands are all ready, if a functional unit is
// available.
func (p *Pipeline) tryIssue(u *uop, intAvail, memAvail, fpAvail *int) bool {
	if u.readyCyc < 0 {
		u.readyCyc = u.mapCyc
		for i := 0; i < u.nsrc; i++ {
			if t := p.ren.readySince(u.src[i]); t > u.readyCyc {
				u.readyCyc = t
			}
		}
	}

	var latency int
	switch u.class {
	case isa.ClassLoad, isa.ClassStore:
		if *memAvail == 0 {
			return false
		}
	case isa.ClassFAdd:
		if *fpAvail == 0 {
			return false
		}
	case isa.ClassFDiv:
		if *fpAvail == 0 || p.divBusy > p.cycle {
			return false
		}
	default:
		if *intAvail == 0 {
			return false
		}
	}

	switch u.class {
	case isa.ClassNop, isa.ClassIntALU:
		latency = p.cfg.Lat.IntALU
		*intAvail--
	case isa.ClassIntMul:
		latency = p.cfg.Lat.IntMul
		*intAvail--
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassJmpInd, isa.ClassRet:
		latency = p.cfg.Lat.Branch
		*intAvail--
	case isa.ClassFAdd:
		latency = p.cfg.Lat.FAdd
		*fpAvail--
	case isa.ClassFDiv:
		latency = p.cfg.Lat.FDiv
		*fpAvail--
		p.divBusy = p.cycle + int64(latency)
	case isa.ClassStore:
		latency = p.cfg.Lat.Store
		*memAvail--
		p.memAccess(u)
	case isa.ClassLoad:
		*memAvail--
		res := p.memAccess(u)
		// Loads become ready to retire after the cache pipeline, even if
		// the value is still in flight (Alpha semantics, Table 1): the
		// value wakes consumers at valueCyc.
		hit := p.cfg.Mem.DCache.HitLatency
		latency = hit
		p.wakeups.add(p.cycle, p.cycle+int64(res.Latency), u)
	}

	u.issueCyc = p.cycle
	u.state = stIssued
	p.leaveQueue(u)
	p.completing.add(p.cycle, p.cycle+int64(latency), u)
	return true
}

// memAccess charges the data-cache access for a load or store and records
// its events.
func (p *Pipeline) memAccess(u *uop) mem.Result {
	res := p.hier.Data(u.ea + p.cfg.PhysBase)
	if p.ctrs != nil {
		p.ctrs.Event(counters.EventDCacheRef, p.cycle)
		if res.L1Miss {
			p.ctrs.Event(counters.EventDCacheMiss, p.cycle)
		}
	}
	if res.L1Miss {
		u.events |= core.EvDCacheMiss
	}
	if res.L2Miss {
		u.events |= core.EvL2Miss
	}
	if res.TLBMiss {
		u.events |= core.EvDTBMiss
	}
	return res
}

// leaveQueue frees u's issue-queue entry as it stops being mapped.
func (p *Pipeline) leaveQueue(u *uop) {
	if u.fp {
		p.iqFPN--
	} else {
		p.iqIntN--
	}
}

// ------------------------------------------------------------- complete --

func (p *Pipeline) completeStage() {
	// Load values arriving this cycle wake consumers. An entry stops
	// pinning its uop once it has been visited — not when take empties the
	// slot, because handling an earlier member of the same slice
	// (resolveControl, checkReplay) can squash a later one.
	for _, u := range p.wakeups.take(p.cycle) {
		p.wakeLoad(u)
		u.pending--
		p.release(u)
	}

	cs := p.completing.take(p.cycle)
	if len(cs) == 0 {
		return
	}
	sortBySeq(cs)
	for _, u := range cs {
		p.completeUop(u)
		u.pending--
		p.release(u)
	}
}

// wakeLoad handles a load's value arriving this cycle.
func (p *Pipeline) wakeLoad(u *uop) {
	if u.state == stSquashed {
		return
	}
	u.valueCyc = p.cycle
	p.wake(p.ren.markReadyIfCurrent(u.dst, u.dstGen, p.cycle))
	// A load that already retired (the Alpha lets loads retire before the
	// value returns) could not finish its sample at retirement: the
	// interrupt is delayed until all signals reach the Profile Registers
	// (§4.1.4).
	if u.state == stRetired {
		p.tagLeave(u, core.TrapNone)
	}
}

// completeUop handles u leaving its functional unit this cycle.
func (p *Pipeline) completeUop(u *uop) {
	if u.state == stSquashed {
		return
	}
	u.state = stCompleted
	u.completeCyc = p.cycle
	if u.dst != noPreg && u.class != isa.ClassLoad {
		p.wake(p.ren.markReady(u.dst, p.cycle))
	}
	if u.inst.Op.IsControl() && u.onPath {
		p.resolveControl(u)
		if u.state == stSquashed {
			return // a replay on this very cycle squashed it; defensive
		}
	}
	if u.class == isa.ClassStore && u.onPath && p.cfg.ReplayTraps {
		p.checkReplay(u)
	}
}

// resolveControl trains the predictor and triggers mispredict recovery.
func (p *Pipeline) resolveControl(u *uop) {
	actualTaken := u.recTaken
	if u.inst.Op.IsConditional() {
		p.pred.UpdateCond(u.pc, actualTaken, u.histAtFetch)
		if actualTaken {
			u.events |= core.EvTaken
		}
	}
	if u.inst.Op.IsIndirect() {
		p.pred.BTBUpdate(u.pc, u.recTarget)
	}
	p.pred.RecordOutcome(!u.mispred)
	if !u.mispred {
		return
	}

	// Mispredict recovery.
	u.events |= core.EvMispredict
	if p.ctrs != nil {
		p.ctrs.Event(counters.EventBranchMispredict, p.cycle)
	}
	p.res.Mispredicts++

	p.squashYounger(u.seq, core.TrapBadPath)
	// Restore front-end state: history as of just after this branch's
	// true outcome, and resume fetch on the correct path.
	if u.inst.Op.IsConditional() {
		h := (u.histAtFetch << 1)
		if actualTaken {
			h |= 1
		}
		p.pred.SetHistory(h)
	} else {
		p.pred.SetHistory(u.histAtFetch)
	}
	p.pred.RASRestore(u.rasAfter)
	p.offPath = false
	p.offPC = 0
	p.nextSeq = u.recSeq + 1
	p.traceDone = false
	p.fetchLine = 0
	p.pendingFetchEv = 0
	p.fetchStallUntil = maxI64(p.fetchStallUntil, p.cycle+1+int64(p.cfg.MispredictPenalty))
}

// checkReplay triggers a 21264-style load-store order replay trap when a
// younger load to the same address issued before this store completed.
func (p *Pipeline) checkReplay(st *uop) {
	var victim *uop
	// Only instructions younger than the store can violate ordering, and
	// they all sit after the store's ROB slot: start the walk there
	// instead of at the head.
	stOff := p.robSlot(int(st.robIdx) - p.robHead + len(p.rob))
	for i := stOff + 1; i < p.robCount; i++ {
		u := p.rob[p.robSlot(p.robHead+i)]
		if u.class != isa.ClassLoad || !u.onPath || !u.eaOK {
			continue
		}
		if u.inst.Op == isa.OpPref {
			continue // prefetches read no data: no ordering violation
		}
		if u.ea != st.ea {
			continue
		}
		if u.state == stIssued || u.state == stCompleted {
			if victim == nil || u.seq < victim.seq {
				victim = u
			}
		}
	}
	if victim == nil {
		return
	}
	p.res.ReplayTraps++
	victim.events |= core.EvReplayTrap
	seq := victim.seq
	recSeq := victim.recSeq
	rasDepth := victim.rasAfter
	p.squashFrom(seq, core.TrapReplay)
	p.pred.RASRestore(rasDepth)
	p.offPath = false
	p.offPC = 0
	p.nextSeq = recSeq
	p.traceDone = false
	p.fetchLine = 0
	p.pendingFetchEv = 0
	p.fetchStallUntil = maxI64(p.fetchStallUntil, p.cycle+1+int64(p.cfg.MispredictPenalty))
}

// ---------------------------------------------------------------- squash --

// squashYounger kills everything strictly younger than seq.
func (p *Pipeline) squashYounger(seq uint64, reason core.TrapReason) {
	p.squashFrom(seq+1, reason)
}

// squashFrom kills every in-flight uop with sequence number >= seq:
// fetch-buffer entries (not yet renamed) and ROB entries (rename undone
// youngest-first). Every holder keeps its uops in fetch order, so each
// drops its victims as a tail before they are killed: a squashed uop is
// never left in the fetch buffer, the ROB or a ready list.
func (p *Pipeline) squashFrom(seq uint64, reason core.TrapReason) {
	p.rdyInt = truncateFrom(p.rdyInt, seq)
	p.rdyFP = truncateFrom(p.rdyFP, seq)

	// Fetch buffer: all entries are younger than anything in the ROB;
	// drop the tail with seq >= seq. Survivors compact to the front of the
	// backing array (writes never outrun the read cursor).
	live := p.fetchBuf[p.fetchHead:]
	kept := p.fetchBuf[:0]
	p.fetchHead = 0
	for _, u := range live {
		if u.seq >= seq {
			p.killUop(u, reason)
		} else {
			kept = append(kept, u)
		}
	}
	p.fetchBuf = kept

	// ROB: walk from the tail, undoing rename state youngest-first.
	for p.robCount > 0 {
		tail := p.rob[p.robSlot(p.robHead+p.robCount-1)]
		if tail.seq < seq {
			break
		}
		p.robCount--
		p.rob[p.robSlot(p.robHead+p.robCount)] = nil
		p.ren.undo(tail.archDst, tail.dst, tail.oldDst)
		p.killUop(tail, reason)
	}
}

// truncateFrom drops the tail of an age-ordered list from the first uop
// with sequence number >= seq.
func truncateFrom(l []*uop, seq uint64) []*uop {
	n := len(l)
	for n > 0 && l[n-1].seq >= seq {
		n--
	}
	return l[:n]
}

// killUop finalizes a squashed uop's bookkeeping.
func (p *Pipeline) killUop(u *uop, reason core.TrapReason) {
	if u.state == stIssued || u.state == stCompleted {
		p.res.IssuedWasted++
	}
	if u.state == stMapped {
		p.leaveQueue(u)
	}
	if p.observe != nil || u.tag != core.NoTag {
		slot := -1
		if u.state != stFetched {
			slot = int(u.robIdx)
		}
		p.leave(u, reason, slot)
	}
	u.state = stSquashed
	// Squashed entries remain in the event rings until their cycle
	// arrives; state checks skip them, and release recycles u only once
	// it has left them.
	p.release(u)
}

// ---------------------------------------------------------------- retire --

func (p *Pipeline) retireStage() {
	retired := 0
	for p.robCount > 0 {
		u := p.rob[p.robHead]
		if u.state != stCompleted || retired >= p.cfg.RetireWidth {
			break
		}
		u.state = stRetired
		u.retireCyc = p.cycle
		p.ren.release(u.oldDst)
		if p.observe != nil || u.tag != core.NoTag {
			p.leave(u, core.TrapNone, int(u.robIdx))
		}
		p.res.Retired++
		p.res.IssuedUseful++
		p.lastProgress = p.cycle
		retired++

		if p.ctrs != nil {
			p.ctrs.Event(counters.EventRetired, p.cycle)
		}
		p.recordRetired(u)
		p.win.trim(u.recSeq + 1)
		p.robPop()
		p.release(u)
	}
}

// record is u's Profile Register contents as it leaves the pipeline:
// retired, or aborted with trap at this cycle. It is built from the uop's
// own fields, and is the one place that decides what a record holds; the
// unit adds only FetchSeq. The address shows once a memory op has issued.
func (p *Pipeline) record(u *uop, trap core.TrapReason) core.Record {
	r := core.Record{
		Context:      p.cfg.Context,
		PC:           u.pc,
		Events:       u.events,
		Trap:         trap,
		History:      u.histAtFetch,
		HistoryBits:  p.pred.HistoryBits(),
		StageCycle:   [core.NumStages]int64{u.fetchCyc, u.mapCyc, u.readyCyc, u.issueCyc, u.completeCyc, p.cycle},
		LoadComplete: u.valueCyc,
	}
	if u.eaOK && u.issueCyc >= 0 {
		r.Addr, r.AddrValid = u.ea, true
	}
	if !u.onPath {
		r.Events |= core.EvOffPath
	}
	if u.state == stRetired {
		r.Events |= core.EvRetired
		r.StageCycle[core.StageRetire] = u.retireCyc
	}
	return r
}

// leave hands the record of u, retired or squashed with trap, to the leave
// observer and to the ProfileMe unit. A retired load whose value is still
// in flight keeps its tag: wakeLoad hands its record over when the value
// arrives.
func (p *Pipeline) leave(u *uop, trap core.TrapReason, slot int) {
	if p.observe != nil {
		p.observe(Leave{Record: p.record(u, trap), RecSeq: u.recSeq, Slot: slot})
	}
	if u.state != stRetired || u.class != isa.ClassLoad || u.valueCyc >= 0 {
		p.tagLeave(u, trap)
	}
}

// tagLeave hands u's record to the ProfileMe unit, if u is tagged, and
// untags it.
func (p *Pipeline) tagLeave(u *uop, trap core.TrapReason) {
	if u.tag == core.NoTag {
		return
	}
	r := p.record(u, trap)
	p.prof.Leave(u.tag, &r)
	u.tag = core.NoTag
}

func (p *Pipeline) recordRetired(u *uop) {
	if p.wasted != nil {
		p.wasted.usefulIssue(u.issueCyc)
		p.wasted.window(u.pc, u.fetchCyc, u.completeCyc)
	}
	st := p.pcStats(u.pc)
	if st == nil {
		return
	}
	st.Retired++
	st.LatInProgress += u.completeCyc - u.fetchCyc
	st.LatFetchRetire += u.retireCyc - u.fetchCyc
	if u.events.Has(core.EvDCacheMiss) {
		st.DCacheMiss++
	}
	if u.events.Has(core.EvTaken) {
		st.Taken++
	}
}

// wastedSink folds a finalized in-progress window into per-PC ground truth.
func (p *Pipeline) wastedSink(pc uint64, from, to int64, useful int64) {
	st := p.pcStats(pc)
	if st == nil {
		return
	}
	slots := (to - from) * int64(p.cfg.SustainedIssueWidth)
	wasted := slots - useful
	if wasted < 0 {
		wasted = 0
	}
	st.WastedSlots += wasted
	st.UsefulSlots += useful
}

// ------------------------------------------------------------ interrupts --

func (p *Pipeline) interruptStage() {
	// Counters need the attribution PC every cycle; ProfileMe only needs
	// it when an interrupt is actually deliverable. Skipping the ROB walk
	// on quiet cycles is behavior-identical and keeps it off the hot path.
	if p.ctrs == nil && (p.prof == nil || !p.prof.InterruptPending()) {
		return
	}
	pc := p.attributionPC()
	if p.uninterruptible(pc) {
		return // interrupts stay pending until the region is left
	}
	if p.ctrs != nil {
		p.ctrs.Tick(p.cycle, pc)
	}
	if p.prof != nil && p.prof.InterruptPending() {
		if p.faults != nil {
			// One hold decision per raised interrupt: injected delivery
			// delay, coalescing window, or stalled drain. Fetch is NOT
			// frozen while the interrupt is withheld — the machine runs
			// on and the Unit sheds samples, which is the hazard.
			if !p.intHoldDecided {
				p.intHoldDecided = true
				if h := p.faults.HoldInterrupt(); h > 0 {
					p.intHoldUntil = p.cycle + h
					p.res.InterruptsHeld++
					p.res.InterruptHoldCycles += h
				}
			}
			if p.cycle < p.intHoldUntil {
				return
			}
			p.intHoldDecided = false
		}
		p.deliverProfileInterrupt()
		p.fetchStallUntil = maxI64(p.fetchStallUntil, p.cycle+1+int64(p.cfg.InterruptCost))
		p.res.InterruptStall += int64(p.cfg.InterruptCost)
	}
}

// uninterruptible reports whether pc lies in the configured high-priority
// region.
func (p *Pipeline) uninterruptible(pc uint64) bool {
	return p.cfg.UninterruptibleEnd > p.cfg.UninterruptibleStart &&
		pc >= p.cfg.UninterruptibleStart && pc < p.cfg.UninterruptibleEnd
}

func (p *Pipeline) deliverProfileInterrupt() {
	samples := p.prof.Drain()
	p.res.Interrupts++
	if p.profHandler != nil {
		p.profHandler(samples)
	}
	// The handler has returned; its contract (AttachProfileMe) is that it
	// copies what it keeps, so the buffer can back the next fill.
	p.prof.Recycle(samples)
}

// attributionPC is the PC a performance-counter interrupt handler would
// observe: the restart PC, i.e. the oldest unretired instruction, else the
// current fetch point.
func (p *Pipeline) attributionPC() uint64 {
	for i := 0; i < p.robCount; i++ {
		u := p.rob[p.robSlot(p.robHead+i)]
		if u.state != stSquashed && u.state != stRetired {
			return u.pc
		}
	}
	if p.fetchHead < len(p.fetchBuf) {
		return p.fetchBuf[p.fetchHead].pc
	}
	if p.offPath {
		return p.offPC
	}
	if r := p.win.at(p.nextSeq); r != nil {
		return r.PC
	}
	return 0
}

// ------------------------------------------------------------------- rob --

// robSlot wraps a ring position in [0, 2*len(rob)) to its slot. The ROB
// size need not be a power of two, and a compare-and-subtract is cheaper
// than the division a modulo costs.
func (p *Pipeline) robSlot(i int) int {
	if i >= len(p.rob) {
		i -= len(p.rob)
	}
	return i
}

func (p *Pipeline) robPush(u *uop) {
	i := p.robSlot(p.robHead + p.robCount)
	u.robIdx = int32(i)
	p.rob[i] = u
	p.robCount++
}

func (p *Pipeline) robPop() {
	p.rob[p.robHead] = nil
	p.robHead = p.robSlot(p.robHead + 1)
	p.robCount--
}

func (p *Pipeline) pcStats(pc uint64) *PCStats {
	if p.pcs == nil {
		return nil
	}
	return p.pcs.at(pc)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
