package profile

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// This file holds the two streaming summaries the query path serves from:
// a space-saving heavy-hitters sketch (top-K hot PCs in O(K) memory) and
// a DDSketch-style log-bucketed quantile sketch (latency percentiles with
// a bounded relative error). Both are mergeable and maintained
// incrementally at merge time, so a query never has to walk the O(DB)
// per-PC rows. Both are deterministic: the space-saving state depends on
// the order updates arrive in, and a merge feeds them a shard's PCs in
// ascending PC order (DB.eachAscending), never in arrival order, so the
// same shards merged in the same order give the same rows and floor.
// The property tests in sketch_test.go pin the error bounds stated here
// against exact answers.

// SSEntry is one space-saving counter: a tracked PC, its estimated
// count, and the worst-case overcount the estimate carries. The sketch's
// core guarantee (Metwally et al., "Efficient Computation of Frequent
// and Top-k Elements in Data Streams"):
//
//	Count - Err <= true count <= Count
//
// and Err is at most the sketch floor (minCount), itself at most N/K for
// N total observations over K counters. SSEntry is a value type; rows
// returned by Items/TopK alias nothing inside the sketch.
type SSEntry struct {
	PC    uint64
	Count uint64 // estimate; never an undercount
	Err   uint64 // maximum overcount folded into Count
}

// spaceSaving is the bounded-memory heavy-hitters sketch. It is NOT safe
// for concurrent use; SafeDB owns one under its write lock and publishes
// immutable row snapshots for readers.
//
// Weighted updates are supported (Add with w > 1), which is what merge-
// time maintenance needs: a shard merge contributes each PC's whole
// sample delta in one update.
//
// Storage follows what the sketch holds, not k: an empty sketch is its
// header alone, and every array grows as PCs arrive. Entries live in
// stable slots (PC and inherited error). The min-heap holds each entry's
// count inline beside its slot id, so a sift compares heap entries
// without chasing slots, and pos says where each slot sits in the heap.
// The PC -> slot index (pcIndex) is written only when a PC enters or
// leaves the sketch, never inside siftUp/siftDown. A full K = 512 sketch
// is 30 KiB: 8 KiB each of heap and slots, 2 KiB of positions and the
// 12 KiB index.
type spaceSaving struct {
	k     int
	n     uint64    // total weight observed
	slots []ssSlot  // one per tracked PC; an evicting PC takes over its victim's slot
	heap  []ssCount // min-heap by count (ties broken arbitrarily)
	pos   []int32   // slot id -> heap position
	index pcIndex   // PC -> slot id
}

// ssSlot is what a tracked PC keeps outside the heap.
type ssSlot struct{ pc, err uint64 }

// ssCount is one heap entry: a tracked PC's count and its slot.
type ssCount struct {
	count uint64
	slot  int32
}

// newSpaceSaving returns an empty sketch with k counters. Any item whose
// true count exceeds N/k is guaranteed to be tracked; estimates overcount
// by at most minCount() <= N/k.
func newSpaceSaving(k int) *spaceSaving {
	return &spaceSaving{k: max(k, 1)}
}

// minCount returns the sketch floor: the smallest tracked count once the
// sketch is full, 0 before that. It bounds two things at once — the
// maximum overcount of any reported estimate, and the maximum true count
// of any PC the sketch is NOT tracking.
func (s *spaceSaving) minCount() uint64 {
	if len(s.slots) < s.k {
		return 0
	}
	return s.heap[0].count
}

// add folds weight w for pc into the sketch: O(log K). If the sketch is
// full and pc is untracked, the minimum counter is evicted and its count
// becomes pc's inherited overcount (the space-saving step).
func (s *spaceSaving) add(pc uint64, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	if slot, ok := s.index.get(pc); ok {
		i := int(s.pos[slot])
		s.heap[i].count += w
		s.siftDown(i)
		return
	}
	if len(s.slots) < s.k {
		s.push(pc, w, 0)
		s.siftUp(len(s.heap) - 1)
		return
	}
	root := s.heap[0]
	victim := &s.slots[root.slot]
	s.index.del(victim.pc)
	s.index.put(pc, root.slot)
	*victim = ssSlot{pc: pc, err: root.count}
	s.heap[0].count = root.count + w
	s.siftDown(0)
}

// push puts pc in a fresh slot at the end of the heap; the caller
// restores the heap order.
func (s *spaceSaving) push(pc, count, err uint64) {
	slot := int32(len(s.slots))
	s.slots = append(s.slots, ssSlot{pc: pc, err: err})
	s.heap = append(s.heap, ssCount{count: count, slot: slot})
	s.pos = append(s.pos, slot)
	s.index.put(pc, slot)
}

// entry is heap entry h as a row.
func (s *spaceSaving) entry(h ssCount) SSEntry {
	sl := s.slots[h.slot]
	return SSEntry{PC: sl.pc, Count: h.count, Err: sl.err}
}

// items returns every tracked entry, descending by Count with PC as the
// tie-break (matching DB.HotPCs ordering, so the sketch and the exact
// path agree whenever the sketch has seen fewer than K distinct PCs and
// is therefore exact). The slice and entries are copies.
func (s *spaceSaving) items() []SSEntry {
	out := make([]SSEntry, len(s.heap))
	for i, h := range s.heap {
		out[i] = s.entry(h)
	}
	slices.SortFunc(out, hotterEntry)
	return out
}

// hotterEntry orders rows by Count descending, then PC ascending: a
// total order over distinct PCs, so any sort gives the same rows.
func hotterEntry(a, b SSEntry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.PC, b.PC)
}

// mergeSketches returns a new sketch summarizing the union stream of a and b —
// the property that lets per-instance partials combine into a fleet
// answer. For a PC tracked in only one input, the other input may have
// seen it up to its floor times; that floor is added to both the count
// and the error so the merged estimate keeps the never-undercount
// guarantee. The merged floor (and so the error bound) is at most
// floor(a) + floor(b). The result is sized once for the rows it keeps.
func mergeSketches(a, b *spaceSaving) *spaceSaving {
	k := min(a.k, b.k)
	fa, fb := a.minCount(), b.minCount()
	entries := make([]SSEntry, 0, len(a.heap)+len(b.heap))
	for _, h := range a.heap {
		e := a.entry(h)
		if slot, ok := b.index.get(e.PC); ok {
			e.Count += b.heap[b.pos[slot]].count
			e.Err += b.slots[slot].err
		} else {
			// Unseen by b: b may still have counted it up to fb times.
			e.Count += fb
			e.Err += fb
		}
		entries = append(entries, e)
	}
	for _, h := range b.heap {
		e := b.entry(h)
		if _, ok := a.index.get(e.PC); !ok {
			e.Count += fa
			e.Err += fa
			entries = append(entries, e)
		}
	}
	slices.SortFunc(entries, hotterEntry)
	if len(entries) > k {
		entries = entries[:k]
	}
	m := &spaceSaving{
		k:     k,
		n:     a.n + b.n,
		slots: make([]ssSlot, 0, len(entries)),
		heap:  make([]ssCount, 0, len(entries)),
		pos:   make([]int32, 0, len(entries)),
		index: newPCIndex(len(entries)),
	}
	for _, e := range entries {
		m.push(e.PC, e.Count, e.Err)
	}
	// Restore the min-heap invariant over the kept entries.
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// place puts heap entry h at position i.
func (s *spaceSaving) place(i int, h ssCount) {
	s.heap[i] = h
	s.pos[h.slot] = int32(i)
}

// siftUp and siftDown move a hole rather than swapping: the entry being
// sifted is written once, where it stops. Each makes the comparisons of
// the swapping sift it replaced and leaves every entry where that one
// did, so ties pick the same eviction victim.
func (s *spaceSaving) siftUp(i int) {
	x := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if x.count >= s.heap[parent].count {
			break
		}
		s.place(i, s.heap[parent])
		i = parent
	}
	s.place(i, x)
}

func (s *spaceSaving) siftDown(i int) {
	x := s.heap[i]
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if r := c + 1; r < len(s.heap) && s.heap[r].count < s.heap[c].count {
			c = r
		}
		if s.heap[c].count >= x.count {
			break
		}
		s.place(i, s.heap[c])
		i = c
	}
	s.place(i, x)
}

// pcIndex maps each tracked PC to its slot: open addressing with linear
// probing over a power-of-two table, kept at most half full. It has no
// table until the first put and doubles from 16, so an index of n PCs
// holds the smallest power of two >= 2n entries (at least 16) — for a
// K = 512 sketch never more than 1024. A deletion shifts the rest of its
// probe cluster back instead of leaving a tombstone, so churn never
// lengthens a probe.
type pcIndex struct {
	tab   []pcEntry
	n     int  // occupied entries
	shift uint // 64 - log2(len(tab)): a hash's top bits pick the home entry
}

// pcEntry is one table entry, key and slot side by side. The PC is split
// in two words so an entry takes 12 bytes, not 16; ref is slot+1, and 0
// marks an empty entry (PC 0 is a valid key).
type pcEntry struct {
	lo, hi uint32
	ref    int32
}

func (e *pcEntry) pc() uint64 { return uint64(e.hi)<<32 | uint64(e.lo) }

// newPCIndex returns an index whose table already holds n PCs without
// growing.
func newPCIndex(n int) pcIndex {
	var x pcIndex
	if n > 0 {
		x.resize(max(16, 1<<bits.Len(uint(2*n-1))))
	}
	return x
}

// home is pc's first probe position: Fibonacci hashing, so PCs that
// differ only in low bits (strided code addresses) spread over the table.
func (x *pcIndex) home(pc uint64) int {
	return int((pc * 0x9e3779b97f4a7c15) >> x.shift)
}

// lookup returns pc's table position, or the empty position where a
// probe for it stops. The table must exist.
func (x *pcIndex) lookup(pc uint64) (int, bool) {
	lo, hi := uint32(pc), uint32(pc>>32)
	mask := len(x.tab) - 1
	for i := x.home(pc); ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.ref == 0 {
			return i, false
		}
		if e.lo == lo && e.hi == hi {
			return i, true
		}
	}
}

func (x *pcIndex) get(pc uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	if i, ok := x.lookup(pc); ok {
		return x.tab[i].ref - 1, true
	}
	return 0, false
}

// put maps pc, which the index does not hold, to slot, growing the
// table first if one more PC would fill more than half of it.
func (x *pcIndex) put(pc uint64, slot int32) {
	if 2*(x.n+1) > len(x.tab) {
		x.resize(max(16, 2*len(x.tab)))
	}
	i, _ := x.lookup(pc)
	x.tab[i] = pcEntry{lo: uint32(pc), hi: uint32(pc >> 32), ref: slot + 1}
	x.n++
}

// del unmaps pc. Each entry after it in the probe cluster moves back
// into the hole unless its home lies cyclically in (hole, entry] — where
// a probe for it would stop before reaching the hole.
func (x *pcIndex) del(pc uint64) {
	if x.n == 0 {
		return
	}
	i, ok := x.lookup(pc)
	if !ok {
		return
	}
	mask := len(x.tab) - 1
	for j := (i + 1) & mask; x.tab[j].ref != 0; j = (j + 1) & mask {
		h := x.home(x.tab[j].pc())
		if (i < j && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = pcEntry{}
	x.n--
}

// resize rehashes every entry into a table of size entries, a power of
// two.
func (x *pcIndex) resize(size int) {
	old := x.tab
	x.tab = make([]pcEntry, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.ref != 0 {
			i, _ := x.lookup(e.pc())
			x.tab[i] = e
		}
	}
}

// quantileAlpha is the quantile sketches' relative-error target: a
// reported quantile is within ±5% of the exact value.
const quantileAlpha = 0.05

// quantileSketch is a DDSketch-style log-bucketed histogram over
// non-negative values (cycle latencies here): bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so the bucket
// midpoint estimate of any quantile is within alpha relative error of
// the exact answer. Values in [0, 1] land in a dedicated zero bucket and
// are reported as 0 (sub-cycle latencies do not exist in this domain).
//
// The buckets are a dense slice indexed by bucket number, grown on
// demand to the highest bucket seen: latencies up to 1000 cycles reach
// bucket 70, and the clamp at quantileMax caps the slice at 445
// entries (3.5 KiB) whatever is fed.
//
// The sketch is deterministic and mergeable (bucket counts add); it is
// NOT safe for concurrent use — SafeDB owns its sketches under the write
// lock and publishes computed summaries into the read view.
type quantileSketch struct {
	gamma  float64
	lgamma float64
	zero   uint64
	count  uint64
	bkt    []uint64 // bkt[i] counts bucket i; bkt[0] stays 0 (values <= 1 go to zero)
}

// quantileMax is the largest value the sketch buckets apart: a per-PC
// mean latency is a uint64 sum over a count, so it cannot exceed 2^64.
// Larger values (+Inf included) count in its bucket, number 444.
const quantileMax = 0x1p64

// newQuantileSketch returns an empty sketch.
func newQuantileSketch() *quantileSketch {
	alpha := float64(quantileAlpha) // a variable: gamma is float64 arithmetic, not an exact constant
	gamma := (1 + alpha) / (1 - alpha)
	return &quantileSketch{gamma: gamma, lgamma: math.Log(gamma)}
}

// addN folds n identical observations in one O(1) update: a merged shard
// contributes a per-PC mean weighted by its contributing-sample count.
// Values at or below 1 (and negative ones and NaN, which violate the
// latency domain but must not corrupt the histogram) land in the zero
// bucket; values above quantileMax land in its bucket.
func (q *quantileSketch) addN(v float64, n uint64) {
	if n == 0 {
		return
	}
	q.count += n
	if !(v > 1) {
		q.zero += n
		return
	}
	i := int(math.Ceil(math.Log(min(v, quantileMax)) / q.lgamma))
	if i >= len(q.bkt) {
		q.bkt = append(q.bkt, make([]uint64, i+1-len(q.bkt))...)
	}
	q.bkt[i] += n
}

// quantileSummary is the published form of one latency distribution:
// fixed percentiles computed at view-publish time so readers never touch
// the live sketch. RelError is the sketch's alpha: each percentile is
// within ±RelError (relative) of the exact value over the observed
// stream.
type quantileSummary struct {
	Kind     string  `json:"kind"`
	Count    uint64  `json:"count"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	RelError float64 `json:"rel_error"`
}

// summarize computes the published percentiles for one sketch, each
// within alpha relative error of the exact quantile of the observed
// stream (0 with no observations): the q-quantile is the bucket holding
// rank q*(count-1). One ascending walk of the buckets answers all three.
func (q *quantileSketch) summarize(kind string) quantileSummary {
	s := quantileSummary{Kind: kind, Count: q.count, RelError: quantileAlpha}
	if q.count == 0 {
		return s
	}
	ps := [...]float64{0.50, 0.90, 0.99}
	var v [len(ps)]float64
	rank := func(k int) uint64 { return uint64(ps[k] * float64(q.count-1)) }
	k := 0
	for k < len(ps) && rank(k) < q.zero {
		k++ // the zero bucket answers 0
	}
	cum := q.zero
	for i, c := range q.bkt {
		if k == len(ps) {
			break
		}
		cum += c
		for ; k < len(ps) && rank(k) < cum; k++ {
			v[k] = q.midpoint(i)
		}
	}
	// Unreachable when counts are consistent; fall back to the top bucket.
	for ; k < len(ps); k++ {
		v[k] = q.midpoint(len(q.bkt) - 1)
	}
	s.P50, s.P90, s.P99 = v[0], v[1], v[2]
	return s
}

// midpoint is bucket i's representative value, the midpoint of
// (gamma^(i-1), gamma^i]: 2*gamma^i/(gamma+1).
func (q *quantileSketch) midpoint(i int) float64 {
	return 2 * math.Pow(q.gamma, float64(i)) / (q.gamma + 1)
}
