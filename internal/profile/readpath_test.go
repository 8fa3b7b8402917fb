package profile

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// These tests pin the three read shapes that answer from published
// state: each must return exactly what the slow path it replaces would
// have returned for the same aggregate state.

// hotPCsByFullSort is DB.HotPCs as it was before the bounded-heap
// selection — collect every accumulator, sort them all, truncate — kept
// as the reference the selection is checked against.
func hotPCsByFullSort(db *DB, n int) []*PCAccum {
	accs := make([]*PCAccum, 0, db.n)
	db.each(func(_ int32, a *PCAccum) { accs = append(accs, a) })
	sort.Slice(accs, func(i, j int) bool {
		if accs[i].Samples != accs[j].Samples {
			return accs[i].Samples > accs[j].Samples
		}
		return accs[i].PC < accs[j].PC
	})
	if n > 0 && len(accs) > n {
		accs = accs[:n]
	}
	return accs
}

// samePointers reports whether two hot lists name the same live
// accumulators in the same order.
func samePointers(a, b []*PCAccum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHotPCsSelectionMatchesFullSort: on random databases with heavy
// ties, the heap selection returns the same accumulators in the same
// order as sorting everything, for n = 0, small n, n = len and n > len.
func TestHotPCsSelectionMatchesFullSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		db := NewDB(16, 0, 4)
		distinct := rng.IntRange(0, 300)
		levels := rng.IntRange(1, 6) // few distinct counts: ties everywhere
		for i := 0; i < distinct; i++ {
			pc := 0x400 + 8*uint64(rng.Intn(4*distinct+1))
			for j := rng.IntRange(1, levels); j > 0; j-- {
				db.Add(core.Sample{First: rec(pc, true, 0, 1, 2, 3, 5, 9)})
			}
		}
		size := db.n
		for _, n := range []int{-1, 0, 1, 2, rng.IntRange(1, size+1), size - 1, size, size + 1, 10 * (size + 1)} {
			if got, want := db.HotPCs(n), hotPCsByFullSort(db, n); !samePointers(got, want) {
				t.Errorf("seed %d: HotPCs(%d) over %d PCs differs from the full sort", seed, n, size)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// exactTopStream draws one of the three stream shapes the certificate
// has to be right about: skewed (certifies for small n), flat (every PC
// near the floor: must mostly refuse), and a few heavy PCs over a flat
// floor-level crowd (ties exactly at the floor).
func exactTopStream(rng *stats.RNG, k int) []uint64 {
	switch rng.Intn(3) {
	case 0:
		return zipfStream(rng, rng.IntRange(k/2, 8*k), rng.IntRange(500, 6000))
	case 1:
		distinct := rng.IntRange(k/2, 6*k)
		out := make([]uint64, rng.IntRange(distinct, 4*distinct))
		for i := range out {
			out[i] = 0x400000 + 8*uint64(i%distinct)
		}
		return out
	default:
		distinct, rounds := rng.IntRange(k+1, 4*k), rng.IntRange(1, 4)
		var out []uint64
		for r := 0; r < rounds; r++ {
			for i := 0; i < distinct; i++ {
				out = append(out, 0x400000+8*uint64(i))
			}
		}
		for h := 0; h < rng.IntRange(1, k/2); h++ {
			for j := 0; j < rounds+rng.Intn(3); j++ { // some tie the crowd, some clear it
				out = append(out, 0x400000+8*uint64(rng.Intn(distinct)))
			}
		}
		return out
	}
}

// TestExactTopEqualsScanWhenCertified is the certificate's property
// test: over skewed, flat and tie-at-floor streams fed as one-sample and
// 64-sample shards, whenever View.ExactTop(n) certifies, it deep-equals
// DB.HotPCs(n) on the live database — same PCs, same order, same
// accumulator contents. Both outcomes must occur, or the test is vacuous.
func TestExactTopEqualsScanWhenCertified(t *testing.T) {
	var certified, refused int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 48)
		agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{TopK: k})
		shard := NewDB(16, 0, 4)
		merge := func() bool {
			if err := agg.Merge(shard); err != nil {
				t.Error(err)
				return false
			}
			shard = NewDB(16, 0, 4)
			return true
		}
		for i, pc := range exactTopStream(rng, k) {
			smp := core.Sample{First: rec(pc, i%3 != 0, 0, 1, 2, 3, 5, int64(9+i%7))}
			if i%2 == 0 {
				mergeOne(t, agg, smp)
				continue
			}
			shard.Add(smp)
			if shard.Samples() == 64 && !merge() {
				return false
			}
		}
		// The stream ends on a merge, and a merge rebuilds rows: the view
		// is as of the live database and the two must agree exactly.
		if !merge() {
			return false
		}
		v := agg.View()
		if v.RowsEpoch != v.Epoch {
			t.Errorf("seed %d: rows epoch %d behind epoch %d right after a merge", seed, v.RowsEpoch, v.Epoch)
			return false
		}
		for _, n := range []int{0, 1, 2, 5, k / 2, k, k + 1} {
			top, ok := v.ExactTop(n)
			if !ok {
				refused++
				continue
			}
			certified++
			want := agg.db.HotPCs(n)
			if len(top) != len(want) {
				t.Errorf("seed %d k %d: ExactTop(%d) certified %d rows, scan has %d", seed, k, n, len(top), len(want))
				return false
			}
			for i := range top {
				if !reflect.DeepEqual(*top[i], *want[i]) {
					t.Errorf("seed %d k %d: ExactTop(%d) row %d = %+v, scan %+v", seed, k, n, i, *top[i], *want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if certified == 0 || refused == 0 {
		t.Fatalf("vacuous: %d certified, %d refused", certified, refused)
	}
}

// TestExactTopRefusesWhenUntrackedCouldTie builds the case the strict
// comparison exists for: an evicted PC whose true count equals the n-th
// row's and whose lower address would rank it first. The view must
// refuse; serving its own best row would be wrong.
func TestExactTopRefusesWhenUntrackedCouldTie(t *testing.T) {
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{TopK: 4})
	add := func(pc uint64, times int) {
		for i := 0; i < times; i++ {
			mergeOne(t, agg, core.Sample{First: rec(pc, true, 0, 1, 2, 3, 5, 9)})
		}
	}
	for pc := uint64(0x100); pc < 0x140; pc += 0x10 { // four PCs, three samples each: sketch full
		add(pc, 3)
	}
	add(0x200, 1) // evicts one of the four, which keeps its three samples in the database

	v := agg.View()
	if v.Floor != 3 {
		t.Fatalf("floor = %d, want 3", v.Floor)
	}
	scan := agg.db.HotPCs(4)
	untracked := 0
	for _, a := range scan {
		if v.Get(a.PC) == nil {
			untracked++
		}
	}
	if untracked != 1 {
		t.Fatalf("setup: %d of the true top 4 untracked, want exactly the evicted PC", untracked)
	}
	for n := 1; n <= 5; n++ {
		if top, ok := v.ExactTop(n); ok {
			t.Fatalf("ExactTop(%d) certified %d rows on a flat database with an untracked tie", n, len(top))
		}
	}

	// Lifting the tracked rows clear of the floor makes the top 3
	// certifiable, and only the top 3: the fourth tracked row (one
	// sample) is below what the evicted PC holds.
	for _, hv := range v.TopK {
		if hv.Acc.PC != 0x200 {
			add(hv.Acc.PC, 2)
		}
	}
	v = agg.View()
	top, ok := v.ExactTop(3)
	if !ok {
		t.Fatalf("ExactTop(3) refused with three rows at 5 over floor %d", v.Floor)
	}
	for i, want := range agg.db.HotPCs(3) {
		if !reflect.DeepEqual(*top[i], *want) {
			t.Fatalf("row %d = %+v, scan %+v", i, *top[i], *want)
		}
	}
	if _, ok := v.ExactTop(4); ok {
		t.Fatal("ExactTop(4) certified a row below the floor")
	}
}

// TestExactTopRowsEpochStaleness: counter-only republishes advance Epoch
// but share rows, so a certified answer is as of RowsEpoch — the live
// database's answer at the moment those rows were built.
func TestExactTopRowsEpochStaleness(t *testing.T) {
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})
	if err := agg.Merge(safeShard(1)); err != nil {
		t.Fatal(err)
	}
	built := agg.View()
	if built.RowsEpoch != built.Epoch {
		t.Fatalf("merge must rebuild rows: rows epoch %d, epoch %d", built.RowsEpoch, built.Epoch)
	}
	want, _ := agg.HotPCsExact(3)

	agg.RecordLoss(2)
	agg.ReverseLoss(1)
	v := agg.View()
	if v.RowsEpoch != built.RowsEpoch || v.Epoch != built.Epoch+2 {
		t.Fatalf("counter-only publishes: rows epoch %d (want %d), epoch %d (want %d)",
			v.RowsEpoch, built.RowsEpoch, v.Epoch, built.Epoch+2)
	}
	top, ok := v.ExactTop(3)
	if !ok {
		t.Fatal("small database must certify")
	}
	for i := range top {
		if !reflect.DeepEqual(*top[i], want[i]) {
			t.Fatalf("row %d = %+v, want the rows-epoch answer %+v", i, *top[i], want[i])
		}
	}
}

// queryUncached answers from a fresh merge, leaving the ring's kept
// merge exactly as the cached path left it.
func queryUncached(r *windowRing, now time.Time, window time.Duration, n int) WindowResult {
	kept := r.cache.Swap(nil)
	res := r.query(now, window, n)
	r.cache.Store(kept)
	return res
}

// TestWindowCacheEqualsFreshMerge drives random interleavings of Add,
// clock movement and Query through a ring under an injected clock —
// crossing bucket boundaries, lapping the ring, jumping past the horizon
// (long-gap reset), stepping backwards, with clamped windows and varying
// n — and requires every answer, cached or not, to equal a fresh merge
// at that instant, field by field. The cache must actually be hit.
func TestWindowCacheEqualsFreshMerge(t *testing.T) {
	var hits, misses int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		buckets := rng.IntRange(2, 8)
		dur := time.Duration(rng.IntRange(1, 4)) * 250 * time.Millisecond
		k := rng.IntRange(2, 12)
		r := newWindowRing(buckets, dur, k)
		now := time.Unix(5000, 0)
		for op := 0; op < 400; op++ {
			switch x := rng.Intn(20); {
			case x < 6:
				addPC(r, now, 0x400+8*uint64(rng.Intn(3*k)), uint64(rng.IntRange(1, 5)))
			case x < 9: // within a bucket, or just across a boundary
				now = now.Add(time.Duration(rng.Intn(int(dur))))
			case x == 9: // several buckets: laps the ring when repeated
				now = now.Add(time.Duration(rng.IntRange(1, buckets)) * dur)
			case x == 10 && rng.Intn(4) == 0: // beyond the horizon: reset on the next Add
				now = now.Add(r.horizon() + time.Duration(rng.Intn(int(3*dur))))
			case x == 11 && rng.Intn(4) == 0: // a clock that steps back
				now = now.Add(-time.Duration(rng.Intn(int(2 * dur))))
			default:
				window := time.Duration(rng.IntRange(1, buckets+2)) * dur // sometimes clamped
				if rng.Intn(5) == 0 {
					window = time.Duration(rng.Intn(int(dur))) + 1
				}
				n := rng.Intn(k + 3) // 0 = all rows
				before := r.cache.Load()
				got := r.query(now, window, n)
				if after := r.cache.Load(); after == before && after != nil && got.Buckets > 0 {
					hits++
				} else if got.Buckets > 0 {
					misses++
				}
				if want := queryUncached(r, now, window, n); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d op %d: window %v n %d at %v\ncached %+v\nfresh  %+v",
						seed, op, window, n, now.Sub(time.Unix(5000, 0)), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("vacuous: %d cache hits, %d misses", hits, misses)
	}
}

// TestWindowCacheReusedUntilInvalidated pins the invalidation rule
// itself: a repeat query reuses the kept merge; an Add, or a bucket
// leaving the window, replaces it; a different n does not.
func TestWindowCacheReusedUntilInvalidated(t *testing.T) {
	base := time.Unix(1000, 0)
	r := newWindowRing(4, time.Second, 8)
	addPC(r, base, 0xA, 3)
	addPC(r, base.Add(time.Second), 0xB, 2)

	now := base.Add(1500 * time.Millisecond)
	r.query(now, 2*time.Second, 10)
	kept := r.cache.Load()
	if kept == nil {
		t.Fatal("first query kept no merge")
	}
	if r.query(now.Add(100*time.Millisecond), 2*time.Second, 1); r.cache.Load() != kept {
		t.Fatal("same buckets, same generation, different n: merge not reused")
	}
	if r.query(now, time.Minute, 10); r.cache.Load() != kept {
		t.Fatal("clamped window over the same buckets: merge not reused")
	}
	// 3.5s later a 2s window no longer reaches the first bucket.
	if res := r.query(base.Add(3500*time.Millisecond), 2*time.Second, 10); r.cache.Load() == kept || res.Samples != 2 {
		t.Fatalf("bucket left the window: merge reused or wrong answer %+v", res)
	}
	kept = r.cache.Load()
	addPC(r, base.Add(3500*time.Millisecond), 0xC, 1)
	if res := r.query(base.Add(3500*time.Millisecond), 2*time.Second, 10); r.cache.Load() == kept || res.Samples != 3 {
		t.Fatalf("after Add: merge reused or wrong answer %+v", res)
	}
}

// TestPublishedReadsSingleEpochUnderRace hammers the two new
// published-state reads beside merges (run with -race). Every merge
// folds in the same shard, so after m merges every PC holds m times its
// per-shard count: a certified answer whose rows disagree on m was
// assembled from more than one epoch, and so was a windowed answer whose
// rows (the sketches are under capacity, so exact) do not add up to its
// own sample total.
func TestPublishedReadsSingleEpochUnderRace(t *testing.T) {
	shard := NewDB(16, 0, 4)
	perShard := make(map[uint64]uint64)
	for i := uint64(0); i < 24; i++ {
		for j := uint64(0); j <= i; j++ {
			shard.Add(core.Sample{First: rec(0x400+8*i, true, 0, 1, 2, 3, 5, 9)})
		}
		perShard[0x400+8*i] = i + 1
	}
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{TopK: 32})

	const merges, readers = 300, 4
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				n := 1 + g*3
				v := agg.View()
				top, ok := v.ExactTop(n)
				if !ok {
					t.Error("under-capacity sketch must always certify")
					return
				}
				var m uint64
				for i, a := range top {
					if i > 0 && !hotter(top[i-1], a) {
						t.Errorf("certified rows out of order at %d", i)
						return
					}
					if a.Samples%perShard[a.PC] != 0 || (i > 0 && a.Samples/perShard[a.PC] != m) {
						t.Errorf("certified row %#x has %d samples: not a whole number of merges, or not row 0's %d", a.PC, a.Samples, m)
						return
					}
					m = a.Samples / perShard[a.PC]
				}
				if len(top) > 0 && v.Counters.Samples < m*shard.Samples() {
					t.Errorf("rows from merge %d in a view with only %d samples", m, v.Counters.Samples)
					return
				}
				res := agg.WindowHotPCs(time.Minute, 0)
				var sum uint64
				for i, e := range res.Rows {
					if i > 0 && e.Count > res.Rows[i-1].Count {
						t.Errorf("windowed rows out of order at %d", i)
						return
					}
					sum += e.Count
				}
				if sum != res.Samples {
					t.Errorf("windowed rows sum to %d, window_samples %d", sum, res.Samples)
					return
				}
			}
		}(g)
	}
	for i := 0; i < merges; i++ {
		if err := agg.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got, want := agg.CountersSnapshot().Samples, merges*shard.Samples(); got != want {
		t.Fatalf("samples = %d, want %d", got, want)
	}
}
