package profile

import (
	"math"
	"sort"
)

// This file holds the two streaming summaries the query path serves from:
// a space-saving heavy-hitters sketch (top-K hot PCs in O(K) memory) and
// a DDSketch-style log-bucketed quantile sketch (latency percentiles with
// a bounded relative error). Both are mergeable and maintained
// incrementally at merge time, so a query never has to walk the O(DB)
// per-PC map. Both are deterministic: the space-saving state depends on
// the order updates arrive in, and a merge feeds them a shard's PCs in
// ascending PC order (DB.eachAscending), never in map order, so the
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
// Entries live in stable slots. The min-heap orders slot ids and pos
// says where each slot sits in it, so a sift step swaps two int32s and
// the PC -> slot index is written only when a PC enters or leaves the
// sketch, never inside siftUp/siftDown.
type spaceSaving struct {
	k     int
	n     uint64           // total weight observed
	slots []SSEntry        // one per tracked PC; an evicting PC takes over its victim's slot
	heap  []int32          // slot ids, min-heap by Count (ties broken arbitrarily)
	pos   []int32          // slot id -> heap position
	index map[uint64]int32 // PC -> slot id
}

// newSpaceSaving returns an empty sketch with k counters. Any item whose
// true count exceeds N/k is guaranteed to be tracked; estimates overcount
// by at most minCount() <= N/k.
func newSpaceSaving(k int) *spaceSaving {
	if k < 1 {
		k = 1
	}
	return &spaceSaving{k: k, index: make(map[uint64]int32, k)}
}

// minCount returns the sketch floor: the smallest tracked count once the
// sketch is full, 0 before that. It bounds two things at once — the
// maximum overcount of any reported estimate, and the maximum true count
// of any PC the sketch is NOT tracking.
func (s *spaceSaving) minCount() uint64 {
	if len(s.slots) < s.k {
		return 0
	}
	return s.slots[s.heap[0]].Count
}

// add folds weight w for pc into the sketch: O(log K). If the sketch is
// full and pc is untracked, the minimum counter is evicted and its count
// becomes pc's inherited overcount (the space-saving step).
func (s *spaceSaving) add(pc uint64, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	if slot, ok := s.index[pc]; ok {
		s.slots[slot].Count += w
		s.siftDown(int(s.pos[slot]))
		return
	}
	if len(s.slots) < s.k {
		s.push(SSEntry{PC: pc, Count: w})
		s.siftUp(len(s.heap) - 1)
		return
	}
	slot := s.heap[0]
	evicted := s.slots[slot]
	delete(s.index, evicted.PC)
	s.slots[slot] = SSEntry{PC: pc, Count: evicted.Count + w, Err: evicted.Count}
	s.index[pc] = slot
	s.siftDown(0)
}

// push appends e in a fresh slot at the end of the heap; the caller
// restores the heap order.
func (s *spaceSaving) push(e SSEntry) {
	slot := int32(len(s.slots))
	s.slots = append(s.slots, e)
	s.heap = append(s.heap, slot)
	s.pos = append(s.pos, slot)
	s.index[e.PC] = slot
}

// items returns every tracked entry, descending by Count with PC as the
// tie-break (matching DB.HotPCs ordering, so the sketch and the exact
// path agree whenever the sketch has seen fewer than K distinct PCs and
// is therefore exact). The slice and entries are copies.
func (s *spaceSaving) items() []SSEntry {
	out := make([]SSEntry, len(s.slots))
	copy(out, s.slots)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// mergeSketches returns a new sketch summarizing the union stream of a and b —
// the property that lets per-instance partials combine into a fleet
// answer. For a PC tracked in only one input, the other input may have
// seen it up to its floor times; that floor is added to both the count
// and the error so the merged estimate keeps the never-undercount
// guarantee. The merged floor (and so the error bound) is at most
// floor(a) + floor(b).
func mergeSketches(a, b *spaceSaving) *spaceSaving {
	k := a.k
	if b.k < k {
		k = b.k
	}
	type pair struct{ count, err uint64 }
	union := make(map[uint64]pair, len(a.slots)+len(b.slots))
	fa, fb := a.minCount(), b.minCount()
	for _, e := range a.slots {
		union[e.PC] = pair{e.Count, e.Err}
	}
	for _, e := range b.slots {
		p, ok := union[e.PC]
		if ok {
			union[e.PC] = pair{p.count + e.Count, p.err + e.Err}
		} else {
			// Unseen by a: a may still have counted it up to fa times.
			union[e.PC] = pair{e.Count + fa, e.Err + fa}
		}
	}
	for _, e := range a.slots {
		if _, tracked := b.index[e.PC]; !tracked {
			p := union[e.PC]
			union[e.PC] = pair{p.count + fb, p.err + fb}
		}
	}
	entries := make([]SSEntry, 0, len(union))
	for pc, p := range union {
		entries = append(entries, SSEntry{PC: pc, Count: p.count, Err: p.err})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].PC < entries[j].PC
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	m := newSpaceSaving(k)
	m.n = a.n + b.n
	for _, e := range entries {
		m.push(e)
	}
	// Restore the min-heap invariant over the kept entries.
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

func (s *spaceSaving) less(i, j int) bool {
	return s.slots[s.heap[i]].Count < s.slots[s.heap[j]].Count
}

func (s *spaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

func (s *spaceSaving) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *spaceSaving) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && s.less(l, min) {
			min = l
		}
		if r < len(s.heap) && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
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
// The sketch is deterministic and mergeable (bucket counts add); it is
// NOT safe for concurrent use — SafeDB owns its sketches under the write
// lock and publishes computed summaries into the read view.
type quantileSketch struct {
	gamma  float64
	lgamma float64
	zero   uint64
	count  uint64
	bkt    map[int]uint64
}

// newQuantileSketch returns an empty sketch.
func newQuantileSketch() *quantileSketch {
	alpha := float64(quantileAlpha) // a variable: gamma is float64 arithmetic, not an exact constant
	gamma := (1 + alpha) / (1 - alpha)
	return &quantileSketch{gamma: gamma, lgamma: math.Log(gamma), bkt: make(map[int]uint64)}
}

// addN folds n identical observations in one O(1) update: a merged shard
// contributes a per-PC mean weighted by its contributing-sample count.
// Values at or below 1 (and negative ones, which violate the latency
// domain but must not corrupt the histogram) land in the zero bucket.
func (q *quantileSketch) addN(v float64, n uint64) {
	if n == 0 {
		return
	}
	q.count += n
	if v <= 1 {
		q.zero += n
		return
	}
	i := int(math.Ceil(math.Log(v) / q.lgamma))
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
// rank q*(count-1). One sort of the bucket keys and one ascending walk
// answer all three.
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
	idxs := make([]int, 0, len(q.bkt))
	for i := range q.bkt {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cum := q.zero
	for _, i := range idxs {
		if k == len(ps) {
			break
		}
		cum += q.bkt[i]
		for ; k < len(ps) && rank(k) < cum; k++ {
			v[k] = q.midpoint(i)
		}
	}
	// Unreachable when counts are consistent; fall back to the top bucket.
	for ; k < len(ps); k++ {
		v[k] = q.midpoint(idxs[len(idxs)-1])
	}
	s.P50, s.P90, s.P99 = v[0], v[1], v[2]
	return s
}

// midpoint is bucket i's representative value, the midpoint of
// (gamma^(i-1), gamma^i]: 2*gamma^i/(gamma+1).
func (q *quantileSketch) midpoint(i int) float64 {
	return 2 * math.Pow(q.gamma, float64(i)) / (q.gamma + 1)
}
