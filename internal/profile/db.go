package profile

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/isa"
)

// latencyKinds are the adjacent-stage latencies the database aggregates —
// exactly the rows of the paper's Table 1.
var latencyKinds = []struct {
	Name     string
	From, To core.Stage
	Diagnose string
}{
	{"fetch->map", core.StageFetch, core.StageMap, "map stalls: no free registers or issue-queue slots"},
	{"map->data-ready", core.StageMap, core.StageDataReady, "stalls on data dependences"},
	{"data-ready->issue", core.StageDataReady, core.StageIssue, "execution resource contention"},
	{"issue->retire-ready", core.StageIssue, core.StageRetireReady, "execution latency"},
	{"retire-ready->retire", core.StageRetireReady, core.StageRetire, "stalls on prior unretired instructions"},
}

// NumLatencyKinds is the number of Table 1 adjacent-stage latencies.
const NumLatencyKinds = 5

// LatencyKindName returns the name of latency kind i.
func LatencyKindName(i int) string { return latencyKinds[i].Name }

// LatencyKindDiagnosis returns what a large value of latency kind i
// indicates (Table 1's explanation column).
func LatencyKindDiagnosis(i int) string { return latencyKinds[i].Diagnose }

// numEventKinds is the number of event bits the database counts per PC.
const numEventKinds = 11

// eventKinds lists the event bits the database counts per PC.
var eventKinds = [numEventKinds]core.Event{
	core.EvRetired, core.EvICacheMiss, core.EvITBMiss, core.EvDCacheMiss,
	core.EvDTBMiss, core.EvL2Miss, core.EvTaken, core.EvMispredict,
	core.EvOffPath, core.EvReplayTrap, core.EvResourceStall,
}

// PCAccum aggregates every sample seen for one static instruction:
// the DCPI-style compact representation (counts and sums, no raw samples).
//
// It is a plain value with no pointers (the sampled addresses a database
// keeps are beside its rows: DB.Addrs), so a copy shares nothing. DB.Get
// and DB.HotPCs return pointers into the database's rows, valid until
// its next write that adds a PC; SafeDB.Get and SafeDB.HotPCs return
// copies.
type PCAccum struct {
	PC      uint64
	Samples uint64 // samples naming this PC (first or second of a pair)
	Events  [numEventKinds]uint64

	// Latency sums and the number of samples contributing to each
	// (aborted samples lack later-stage timestamps).
	LatSum   [NumLatencyKinds]int64
	LatCount [NumLatencyKinds]uint64

	// Load issue -> value completion (Table 1's memory-system row).
	MemLatSum   int64
	MemLatCount uint64

	// InProgress sums fetch -> retire-ready latency (the L_I input of the
	// wasted-slots metric and the X axis of Figure 7).
	InProgressSum   int64
	InProgressCount uint64

	// Paired-sampling accumulators for the wasted-slots metric: U_I
	// (§5.2.3), counted incrementally.
	UsefulOverlap uint64 // U_I: pair-partners that usefully overlapped
	PairSamples   uint64 // samples of this PC that were part of a pair

	// RetiredNear counts pair-partners that retired within the database's
	// TNear cycles of this instruction (§5.2.4 neighborhood IPC).
	RetiredNear uint64
}

// Retired returns the count of samples that retired.
func (a *PCAccum) Retired() uint64 { return a.Events[0] }

// EventCount returns the number of samples with ev set (ev must be one of
// the tracked kinds).
func (a *PCAccum) EventCount(ev core.Event) uint64 {
	for i, kind := range eventKinds {
		if kind == ev {
			return a.Events[i]
		}
	}
	return 0
}

// MeanLatency returns the average of latency kind i over contributing
// samples.
func (a *PCAccum) MeanLatency(i int) float64 {
	if a.LatCount[i] == 0 {
		return 0
	}
	return float64(a.LatSum[i]) / float64(a.LatCount[i])
}

// DB is the profile database: per-PC aggregation plus whole-run totals.
//
// Concurrency ownership rule: a DB is NOT safe for concurrent use. Every
// DB has exactly one owning goroutine at a time — the interrupt handler
// during accumulation, the supervisor during a merge — and ownership
// transfers only at a synchronization point (channel handoff, WaitGroup
// join). The moment two goroutines need the same database at once
// (concurrent ingest plus live queries, as in the pmsimd service), wrap
// it in a SafeDB instead; the race test in safedb_test.go pins that
// wrapper's guarantee. Handing a shard to SafeDB.Merge is the last use of
// its rows: a successful merge consumes the shard, and a decoded shard's
// rows are reused by the next LoadDB.
type DB struct {
	// S is the mean sampling interval, for scaling estimates.
	S float64
	// W is the paired-sampling window (0 when unpaired).
	W int
	// C is the machine's sustained issue width (§5.2.3's C).
	C int
	// TNear is the cycle radius for the neighborhood-IPC estimate
	// (§5.2.4); defaultTNear unless changed before adding samples.
	TNear int64
	// RetainAddrs caps how many sampled effective addresses are kept per
	// PC (0 = none), in arrival order (DB.Addrs) — the raw material for
	// the §7 reference-pattern feedback (stride detection for
	// prefetching, page-conflict analysis), which needs a handful.
	RetainAddrs int

	// The per-PC rows, addressed by slot (rows.go): a decoded image's
	// slab, then the chunks of rows added since; n rows in all.
	base   []PCAccum
	chunks [][]PCAccum
	n      int
	// index maps a PC to its slot (rows.go); shift picks a hash's home
	// entry in it.
	index []uint32
	shift uint
	// addrs holds each slot's kept addresses; nil until one is kept.
	addrs [][]uint64
	// unsorted says the slot order is not ascending PC order: some PC
	// arrived after a higher one.
	unsorted bool
	// pooled says base and index go back to LoadDB's pool when a merge
	// consumes the database (recycle); consumed says one has.
	pooled, consumed bool

	samples uint64
	pairs   uint64

	// Loss accounting: lost counts samples the hardware captured but
	// never delivered (reported via RecordLoss), corruptRejected counts
	// delivered samples Add refused as damaged. Random losses leave the
	// delivered subset unbiased, so the Est* estimators scale by the
	// observed loss rate to stay centred (the paper's §4.3 argument that
	// random drops are acceptable, made operational).
	lost            uint64
	corruptRejected uint64
}

// defaultTNear is the default neighborhood radius, matching the paper's
// 30-cycle windowed-IPC measurements (§6).
const defaultTNear = 30

// NewDB returns an empty database for a sampling configuration.
func NewDB(s float64, w, c int) *DB {
	return &DB{S: s, W: w, C: c, TNear: defaultTNear}
}

// Handler adapts the database to a Pipeline.AttachProfileMe interrupt
// handler.
func (db *DB) Handler() func([]core.Sample) {
	return func(ss []core.Sample) {
		for _, s := range ss {
			db.Add(s)
		}
	}
}

// Samples returns the number of samples added.
func (db *DB) Samples() uint64 { return db.samples }

// Pairs returns the number of paired samples added.
func (db *DB) Pairs() uint64 { return db.pairs }

// RecordLoss notes n samples captured by the hardware but never delivered
// to software — buffer-overflow drops, register overwrites, suppressed
// interrupts (core.Stats.Lost after a run). The Est* estimators scale by
// the resulting loss rate.
func (db *DB) RecordLoss(n uint64) { db.lost += n }

// reverseLoss retracts n samples previously reported via RecordLoss.
// The ingest service uses it when a shard that was refused at admission
// (and therefore loss-accounted) is retried and accepted later: the
// shard's captured samples move from the loss ledger into the delivered
// counts, and counting them in both would inflate the loss-correction
// factor. Reversing more than was recorded clamps at zero.
func (db *DB) reverseLoss(n uint64) {
	if n > db.lost {
		n = db.lost
	}
	db.lost -= n
}

// Lost returns the total samples known lost before aggregation: upstream
// hardware losses plus corrupt samples Add rejected.
func (db *DB) Lost() uint64 { return db.lost + db.corruptRejected }

// CorruptRejected returns how many delivered samples Add refused because
// their records violated hardware invariants (bit damage).
func (db *DB) CorruptRejected() uint64 { return db.corruptRejected }

// LossRate returns the fraction of captured samples that never made it
// into the database, 0 when nothing was lost.
func (db *DB) LossRate() float64 {
	l := db.Lost()
	if l == 0 {
		return 0
	}
	return float64(l) / float64(db.samples+l)
}

// lossCorrection is the factor that re-centres count estimators under
// random loss: delivered samples underestimate by (1 - lossRate), so
// estimates scale by captured/delivered. With no recorded loss it is 1 and
// every estimator reduces to the paper's k*S form.
func (db *DB) lossCorrection() float64 {
	l := db.Lost()
	if l == 0 || db.samples == 0 {
		return 1
	}
	return float64(db.samples+l) / float64(db.samples)
}

// Add folds one ProfileMe sample into the database. This is the interrupt
// handler's work: O(1) per sample, no retained raw data. Paired samples
// are considered twice — once from each instruction's point of view — so
// that partner samples are distributed over the window both before and
// after each instruction (§5.2.2).
func (db *DB) Add(s core.Sample) {
	if !recordSane(&s.First) || (s.Paired && !recordSane(&s.Second)) {
		db.corruptRejected++
		return
	}
	db.samples++
	if !s.Paired {
		db.addRecord(&s.First, nil)
		return
	}
	db.pairs++
	db.addRecord(&s.First, &s.Second)
	db.addRecord(&s.Second, &s.First)
}

// maxSaneCycle bounds believable timestamps: a flipped high bit in a cycle
// counter lands far beyond any simulated run length.
const maxSaneCycle = int64(1) << 48

// recordSane checks the invariants real hardware guarantees for every
// Profile Register read: only defined event bits and trap reasons, a
// plausible history width, and per-stage timestamps that are unset (-1) or
// monotonically non-decreasing through the pipe with a load's value
// arriving no earlier than its issue. Samples failing these checks are bit
// damage and are rejected rather than folded into the estimators. Low-bit
// timestamp damage is indistinguishable from timing jitter and passes —
// that is the graceful half of degradation.
func recordSane(r *core.Record) bool {
	if r.Events&^core.KnownEvents != 0 {
		return false
	}
	if !r.Trap.Known() {
		return false
	}
	if r.HistoryBits < 0 || r.HistoryBits > 64 {
		return false
	}
	last := int64(-1)
	for _, c := range r.StageCycle {
		if c < -1 || c > maxSaneCycle {
			return false
		}
		if c >= 0 {
			if c < last {
				return false
			}
			last = c
		}
	}
	if r.LoadComplete < -1 || r.LoadComplete > maxSaneCycle {
		return false
	}
	if r.LoadComplete >= 0 && r.StageCycle[core.StageIssue] >= 0 &&
		r.LoadComplete < r.StageCycle[core.StageIssue] {
		return false
	}
	return true
}

func (db *DB) addRecord(r *core.Record, partner *core.Record) {
	if r.Events.Has(core.EvNoInstruction) {
		return // empty fetch slot: no PC to attribute
	}
	slot, a := db.slotOf(r.PC)
	a.Samples++
	for i, kind := range eventKinds {
		if r.Events.Has(kind) {
			a.Events[i]++
		}
	}
	for i, lk := range latencyKinds {
		if lat, ok := r.Latency(lk.From, lk.To); ok {
			a.LatSum[i] += lat
			a.LatCount[i]++
		}
	}
	if lat, ok := r.MemLatency(); ok {
		a.MemLatSum += lat
		a.MemLatCount++
	}
	if from, to, ok := r.InProgress(); ok {
		a.InProgressSum += to - from
		a.InProgressCount++
	}
	if r.AddrValid && db.RetainAddrs > 0 {
		db.keepAddrs(slot, r.Addr)
	}
	if partner != nil {
		a.PairSamples++
		if usefulOverlap(r, partner) {
			a.UsefulOverlap++
		}
		if retiredWithin(r, partner, db.TNear) {
			a.RetiredNear++
		}
	}
}

// Get returns the accumulator for pc, or nil. The pointer is into the
// database's rows: later Adds change it in place, and a write that adds
// a PC may move the rows, after which the pointer is stale. Callers that
// keep a result across writes (or hand it to another goroutine) copy
// the value, or go through SafeDB.Get, which does.
func (db *DB) Get(pc uint64) *PCAccum {
	_, a, _ := db.find(pc)
	return a
}

// PCs returns all profiled PCs in ascending order.
func (db *DB) PCs() []uint64 {
	pcs := make([]uint64, 0, db.n)
	db.each(func(_ int32, a *PCAccum) { pcs = append(pcs, a.PC) })
	if db.unsorted {
		slices.Sort(pcs)
	}
	return pcs
}

// recordInterval is the sampling interval one delivered record stands
// for. Each sample stands for S fetched instructions, and a paired one
// holds two records, both of which Add folds into the PCs' Samples: a
// database of paired samples scales a record by S/2, an unpaired one by
// S, and a mix (a pair whose partner never arrived is one record) by S
// times samples per record. Every count estimate scales by it, times
// the loss correction: EstimatedCount, EstimatedEventCount, WastedSlots,
// Report, the per-procedure rollup, Realize, and the published view's
// Estimate (View.RecordS), which /v1/estimate and /v1/hotpcs serve.
func (db *DB) recordInterval() float64 {
	switch db.pairs {
	case 0:
		return db.S
	case db.samples:
		return db.S / 2
	}
	return db.S * float64(db.samples) / float64(db.samples+db.pairs)
}

// EstimatedCount estimates how many times pc was fetched (on the predicted
// path) over the run: samples * recordInterval, scaled up by the observed
// loss rate when RecordLoss has reported upstream sample loss.
func (db *DB) EstimatedCount(pc uint64) float64 {
	a := db.Get(pc)
	if a == nil {
		return 0
	}
	return estimateCount(a.Samples, db.recordInterval()) * db.lossCorrection()
}

// EstimatedEventCount estimates the number of occurrences of ev at pc,
// scaled like EstimatedCount.
func (db *DB) EstimatedEventCount(pc uint64, ev core.Event) float64 {
	a := db.Get(pc)
	if a == nil {
		return 0
	}
	return estimateCount(a.EventCount(ev), db.recordInterval()) * db.lossCorrection()
}

// WastedSlots computes the §5.2.3 wasted-issue-slot estimate for pc,
// where S/2 is a paired database's recordInterval:
//
//	total slots  ≈ L_I * C * S / 2
//	useful       ≈ U_I * 2W * S / 2
//	wasted       = total - useful (clamped at 0)
//
// ok is false when the database has no paired samples for pc.
func (db *DB) WastedSlots(pc uint64) (wasted, total, useful float64, ok bool) {
	a := db.Get(pc)
	if a == nil || a.PairSamples == 0 {
		return 0, 0, 0, false
	}
	// Both terms are linear in sample counts, so the loss correction
	// scales them identically; their ratio (and NeighborhoodIPC, a pure
	// ratio) needs no correction at all.
	corr := db.lossCorrection()
	total = float64(a.InProgressSum) * float64(db.C) * db.recordInterval() * corr
	useful = float64(a.UsefulOverlap) * float64(2*db.W) * db.recordInterval() * corr
	wasted = total - useful
	if wasted < 0 {
		wasted = 0
	}
	return wasted, total, useful, true
}

// NeighborhoodIPC estimates the instructions-per-cycle level in the
// dynamic neighborhood of pc (§5.2.4): of the W-instruction window around
// each execution, the fraction of partners retiring within TNear cycles,
// scaled to instructions per cycle: W * fraction / TNear. ok is false
// without paired samples.
func (db *DB) NeighborhoodIPC(pc uint64) (ipc float64, ok bool) {
	a := db.Get(pc)
	if a == nil || a.PairSamples == 0 || db.TNear == 0 {
		return 0, false
	}
	frac := float64(a.RetiredNear) / float64(a.PairSamples)
	return float64(db.W) * frac / float64(db.TNear), true
}

// hotter is the hot-PC order: more samples first, ties toward the lower
// PC. Every ranked read (DB.HotPCs, View.ExactTop) uses it, which is
// what lets a view-served answer equal the scan's row for row.
func hotter(a, b *PCAccum) bool {
	if a.Samples != b.Samples {
		return a.Samples > b.Samples
	}
	return a.PC < b.PC
}

// coldestFirst is a min-heap of accumulators in hot order: the root is
// the coldest.
type coldestFirst []*PCAccum

func (h coldestFirst) Len() int           { return len(h) }
func (h coldestFirst) Less(i, j int) bool { return hotter(h[j], h[i]) }
func (h coldestFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *coldestFirst) Push(x any)        { *h = append(*h, x.(*PCAccum)) }
func (h *coldestFirst) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// topAccums selects the n hottest accumulators offered to it in O(log n)
// per offer: a bounded heap whose root is the coldest row kept, so an
// accumulator that cannot enter the top n costs one comparison.
type topAccums struct {
	n    int
	heap coldestFirst
}

func (t *topAccums) offer(a *PCAccum) {
	switch {
	case len(t.heap) < t.n:
		heap.Push(&t.heap, a)
	case t.n > 0 && hotter(a, t.heap[0]):
		t.heap[0] = a
		heap.Fix(&t.heap, 0)
	}
}

// sorted returns the kept accumulators hottest first. The selector must
// not be offered to afterwards.
func (t *topAccums) sorted() []*PCAccum {
	sort.Slice(t.heap, func(i, j int) bool { return hotter(t.heap[i], t.heap[j]) })
	return t.heap
}

// HotPCs returns the n PCs with the most samples, descending (ties
// break toward the lower PC); n <= 0 means all of them. It walks every
// row but keeps only the best n in a bounded heap: O(DB log n), the
// exact scan. The returned pointers are into the database's rows, valid
// until its next write that adds a PC, like Get's; SafeDB.HotPCs serves
// the same question from its published sketch view in O(n) with copied
// rows.
func (db *DB) HotPCs(n int) []*PCAccum {
	if n <= 0 || n > db.n {
		n = db.n
	}
	top := topAccums{n: n, heap: make(coldestFirst, 0, n)}
	db.each(func(_ int32, a *PCAccum) { top.offer(a) })
	return top.sorted()
}

// Report renders a hot-instruction table. prog may be nil; when given it
// supplies disassembly and symbol names.
func (db *DB) Report(prog *isa.Program, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d samples (%d paired), mean interval %.0f\n", db.samples, db.pairs, db.S)
	if l := db.Lost(); l > 0 {
		fmt.Fprintf(&b, "%d samples lost (%d corrupt-rejected), loss rate %.1f%%; estimates loss-corrected\n",
			l, db.corruptRejected, 100*db.LossRate())
	}
	fmt.Fprintf(&b, "%-10s %-24s %8s %14s %7s %7s %7s %9s\n",
		"PC", "instruction", "samples", "est.cnt(±95%)", "ret%", "dmiss%", "mispr%", "avg-lat")
	for _, a := range db.HotPCs(n) {
		name := fmt.Sprintf("%#x", a.PC)
		dis := ""
		if prog != nil {
			if in, ok := prog.At(a.PC); ok {
				dis = in.String()
			}
			name = prog.SymbolFor(a.PC)
		}
		var lat float64
		if a.InProgressCount > 0 {
			lat = float64(a.InProgressSum) / float64(a.InProgressCount)
		}
		lo, hi := ConfidenceInterval(a.Samples, db.recordInterval()*db.lossCorrection(), 1.96)
		fmt.Fprintf(&b, "%-10s %-24s %8d %8.0f±%-5.0f %6.1f%% %6.1f%% %6.1f%% %9.1f\n",
			name, dis, a.Samples, db.EstimatedCount(a.PC), (hi-lo)/2,
			100*RateEstimate(a.Retired(), a.Samples),
			100*RateEstimate(a.EventCount(core.EvDCacheMiss), a.Samples),
			100*RateEstimate(a.EventCount(core.EvMispredict), a.Samples),
			lat)
	}
	return b.String()
}
