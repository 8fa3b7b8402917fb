package profile

import (
	"sync"
	"sync/atomic"
	"time"
)

// windowRing answers "hot PCs in the last N seconds" without touching
// the O(DB) aggregate: a fixed ring of time buckets, each holding its
// own small space-saving sketch plus exact per-bucket sample counters.
// The ring advances lazily on writes; a query merges the buckets
// overlapping the requested window (O(K * buckets)) and the ring keeps
// that merge, so repeated polls reuse it (O(buckets + n)) until a write
// or a bucket boundary changes which answer is correct.
//
// Concurrency: the ring has its own RWMutex, separate from SafeDB's. A
// write holds the write lock for one shard's merge walk (SafeDB.Merge),
// O(log K) per shard PC — never for anything proportional to the
// database — and queries take the read lock, so windowed queries contend
// with the merge loop only for those shard-sized critical sections,
// never for an O(DB) copy. The unwindowed sketch path is fully lock-free
// (see View).
type windowRing struct {
	mu        sync.RWMutex
	bucketDur time.Duration
	k         int
	buckets   []windowBucket
	head      int       // current bucket
	headStart time.Time // start of the current bucket's interval
	started   bool

	// gen counts writes: every lockHead (and so every advance, lap and
	// reset) bumps it under mu. cache is the last merge a query performed,
	// valid for exactly the ring contents (gen) and contributing buckets
	// it was built from.
	gen   uint64
	cache atomic.Pointer[windowMerge]
}

// windowMerge is the merged state of one set of contributing buckets at
// one ring generation. Immutable once stored: queries copy rows out.
type windowMerge struct {
	gen      uint64
	from, to time.Time // starts of the oldest and newest contributing bucket
	buckets  int
	samples  uint64
	rows     []SSEntry // every merged row (at most K), descending
	floor    uint64
}

type windowBucket struct {
	start   time.Time
	sk      *spaceSaving
	samples uint64
}

// newWindowRing builds a ring of n buckets of d each (horizon n*d),
// tracking k counters per bucket.
func newWindowRing(n int, d time.Duration, k int) *windowRing {
	if n < 1 {
		n = 1
	}
	if d <= 0 {
		d = time.Second
	}
	r := &windowRing{bucketDur: d, k: k, buckets: make([]windowBucket, n)}
	for i := range r.buckets {
		r.buckets[i].sk = newSpaceSaving(k)
	}
	return r
}

// horizon returns the maximum lookback the ring can answer.
func (r *windowRing) horizon() time.Duration {
	return time.Duration(len(r.buckets)) * r.bucketDur
}

// lockHead begins one write at now: it takes the write lock, bumps the
// generation, advances the ring so the head bucket covers now, and
// returns that bucket. The caller folds a shard in with add and then
// calls r.mu.Unlock, so the lock is held in proportion to the shard,
// never to the aggregate.
func (r *windowRing) lockHead(now time.Time) *windowBucket {
	r.mu.Lock()
	r.gen++
	r.advanceLocked(now)
	return &r.buckets[r.head]
}

// add folds weight w for pc into the bucket. Caller holds the ring's
// write lock (lockHead).
func (b *windowBucket) add(pc, w uint64) {
	b.sk.add(pc, w)
	b.samples += w
}

// advanceLocked rotates the ring so the head bucket covers now. A long
// idle gap resets stale buckets without looping once per elapsed bucket.
func (r *windowRing) advanceLocked(now time.Time) {
	if !r.started {
		r.started = true
		r.headStart = now.Truncate(r.bucketDur)
		r.buckets[r.head].start = r.headStart
		return
	}
	steps := 0
	for !now.Before(r.headStart.Add(r.bucketDur)) {
		if steps >= len(r.buckets) {
			// Everything in the ring is stale: reset in place.
			for i := range r.buckets {
				r.buckets[i] = windowBucket{sk: newSpaceSaving(r.k)}
			}
			r.head = 0
			r.headStart = now.Truncate(r.bucketDur)
			r.buckets[0].start = r.headStart
			return
		}
		r.head = (r.head + 1) % len(r.buckets)
		r.headStart = r.headStart.Add(r.bucketDur)
		r.buckets[r.head] = windowBucket{start: r.headStart, sk: newSpaceSaving(r.k)}
		steps++
	}
}

// WindowResult is one windowed hot-PC answer. Rows carry sketch
// estimates only (per-bucket rings keep no per-PC accumulators); Floor
// bounds every PC the answer does not list.
type WindowResult struct {
	// Window is the lookback actually served; Clamped is true when the
	// request exceeded the ring horizon and was clamped to it.
	Window  time.Duration
	Clamped bool
	// Buckets is how many ring buckets contributed.
	Buckets int
	// Samples is the exact number of samples recorded in those buckets.
	Samples uint64
	// Rows are the estimated hottest PCs in the window, descending.
	Rows []SSEntry
	// Floor bounds every PC absent from Rows: it was seen at most Floor
	// times in the window. It is the merged sketch floor, or the first
	// cut row's estimate when the answer was cut to n and that is
	// higher. No row overcounts by more than its own Err.
	Floor uint64
}

// contributes reports whether b holds samples inside [cutoff, now]: any
// part of [start, start+dur) is in the window and the bucket is not a
// leftover from a previous ring lap.
func (r *windowRing) contributes(b *windowBucket, cutoff, now time.Time) bool {
	if b.sk.n == 0 && b.samples == 0 {
		return false
	}
	return !b.start.Add(r.bucketDur).Before(cutoff) && !b.start.After(now)
}

// query merges the buckets overlapping [now-window, now] and returns the
// top n rows. It takes the ring's read lock only. The merge is O(K *
// buckets); its result depends only on the ring's contents and on which
// buckets contribute, so it is kept and reused — O(buckets + n) — until
// a write (which also covers a lap or a long-gap reset) or a bucket
// boundary changes either. A reused answer is exactly what merging again
// at that instant would return.
func (r *windowRing) query(now time.Time, window time.Duration, n int) WindowResult {
	res := WindowResult{Window: window}
	if window <= 0 {
		return res
	}
	if h := r.horizon(); window > h {
		res.Window, res.Clamped = h, true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	cutoff := now.Add(-res.Window)
	// At a fixed generation the contributing set is every non-empty
	// bucket starting between the oldest and the newest contributing
	// start, so those two times identify it.
	var from, to time.Time
	contributing := 0
	for i := range r.buckets {
		b := &r.buckets[i]
		if !r.contributes(b, cutoff, now) {
			continue
		}
		if contributing == 0 || b.start.Before(from) {
			from = b.start
		}
		if contributing == 0 || b.start.After(to) {
			to = b.start
		}
		contributing++
	}
	if contributing == 0 {
		return res
	}
	m := r.cache.Load()
	if m == nil || m.gen != r.gen || !m.from.Equal(from) || !m.to.Equal(to) {
		m = r.mergeLocked(cutoff, now)
		m.from, m.to = from, to
		r.cache.Store(m)
	}
	rows := m.rows
	res.Floor = m.floor
	if n > 0 && len(rows) > n {
		res.Floor = max(res.Floor, rows[n].Count) // the rows cut: estimates never undercount
		rows = rows[:n]
	}
	res.Buckets = m.buckets
	res.Samples = m.samples
	res.Rows = append([]SSEntry(nil), rows...)
	return res
}

// mergeLocked merges every contributing bucket's sketch, in ring order.
// Caller holds mu (read suffices: gen cannot move under it) and has
// established that at least one bucket contributes.
func (r *windowRing) mergeLocked(cutoff, now time.Time) *windowMerge {
	m := &windowMerge{gen: r.gen}
	var merged *spaceSaving
	for i := range r.buckets {
		b := &r.buckets[i]
		if !r.contributes(b, cutoff, now) {
			continue
		}
		m.buckets++
		m.samples += b.samples
		if merged == nil {
			merged = mergeSketches(b.sk, newSpaceSaving(r.k))
		} else {
			merged = mergeSketches(merged, b.sk)
		}
	}
	m.rows = merged.items()
	m.floor = merged.minCount()
	return m
}
