package profile

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// zipfStream draws a skewed stream of PCs: rank r gets weight ~ 1/(r+1),
// the shape that makes heavy-hitter sketches earn their keep.
func zipfStream(rng *stats.RNG, distinct, draws int) []uint64 {
	cum := make([]float64, distinct)
	total := 0.0
	for i := 0; i < distinct; i++ {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	out := make([]uint64, draws)
	for i := range out {
		x := rng.Float64() * total
		j := sort.SearchFloat64s(cum, x)
		if j >= distinct {
			j = distinct - 1
		}
		out[i] = 0x400000 + 8*uint64(j)
	}
	return out
}

// TestSpaceSavingBounds is the sketch's property test: on seeded skewed
// streams, every estimate obeys est-err <= true <= est, the error never
// exceeds the floor (<= N/K), and every PC whose true count exceeds N/K
// is tracked (the Metwally heavy-hitter guarantee).
func TestSpaceSavingBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 64)
		distinct := rng.IntRange(k/2, 8*k)
		draws := rng.IntRange(1000, 20000)
		sk := newSpaceSaving(k)
		truth := make(map[uint64]uint64)
		for _, pc := range zipfStream(rng, distinct, draws) {
			w := uint64(rng.IntRange(1, 4))
			sk.add(pc, w)
			truth[pc] += w
		}
		var n uint64
		for _, c := range truth {
			n += c
		}
		if sk.n != n {
			t.Errorf("seed %d: N=%d want %d", seed, sk.n, n)
			return false
		}
		floor := sk.minCount()
		if floor > n/uint64(k) {
			t.Errorf("seed %d: floor %d exceeds N/K=%d", seed, floor, n/uint64(k))
			return false
		}
		for _, e := range sk.items() {
			tc := truth[e.PC]
			if e.Count < tc || e.Count-e.Err > tc {
				t.Errorf("seed %d: pc %#x est %d err %d true %d", seed, e.PC, e.Count, e.Err, tc)
				return false
			}
			if e.Err > floor {
				t.Errorf("seed %d: pc %#x err %d above floor %d", seed, e.PC, e.Err, floor)
				return false
			}
		}
		for pc, tc := range truth {
			if tc > floor {
				if _, ok := sk.index.get(pc); !ok {
					t.Errorf("seed %d: heavy hitter %#x (true %d > floor %d) untracked", seed, pc, tc, floor)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSpaceSavingExactWhenSmall pins the exactness contract the serving
// path relies on: with at most K distinct PCs the sketch IS the exact
// answer, in DB.HotPCs order, with zero error.
func TestSpaceSavingExactWhenSmall(t *testing.T) {
	sk := newSpaceSaving(16)
	truth := map[uint64]uint64{0x10: 5, 0x20: 9, 0x30: 9, 0x40: 1, 0x50: 3}
	for pc, c := range truth {
		for i := uint64(0); i < c; i++ {
			sk.add(pc, 1)
		}
	}
	items := sk.items()
	want := []uint64{0x20, 0x30, 0x10, 0x50, 0x40} // count desc, PC asc
	if len(items) != len(want) {
		t.Fatalf("got %d items, want %d", len(items), len(want))
	}
	for i, e := range items {
		if e.PC != want[i] || e.Count != truth[e.PC] || e.Err != 0 {
			t.Fatalf("item %d = %+v, want pc %#x count %d err 0", i, e, want[i], truth[want[i]])
		}
	}
	if sk.minCount() != 0 {
		t.Fatalf("non-full sketch floor = %d, want 0", sk.minCount())
	}
}

// TestSpaceSavingMergeBounds verifies mergeability — the property the
// router's fleet scatter-gather depends on: the merged sketch keeps the
// never-undercount bound against the union stream's true counts.
func TestSpaceSavingMergeBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 48)
		truth := make(map[uint64]uint64)
		build := func() *spaceSaving {
			sk := newSpaceSaving(k)
			distinct := rng.IntRange(k/2, 6*k)
			for _, pc := range zipfStream(rng, distinct, rng.IntRange(500, 8000)) {
				sk.add(pc, 1)
				truth[pc]++
			}
			return sk
		}
		a, b := build(), build()
		m := mergeSketches(a, b)
		if m.n != a.n+b.n {
			t.Errorf("seed %d: merged N=%d want %d", seed, m.n, a.n+b.n)
			return false
		}
		for _, e := range m.items() {
			tc := truth[e.PC]
			if e.Count < tc || e.Count-e.Err > tc {
				t.Errorf("seed %d: merged pc %#x est %d err %d true %d", seed, e.PC, e.Count, e.Err, tc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileSketchRelativeError checks the DDSketch bound on seeded
// streams: every reported percentile is within alpha relative error of
// the exact order statistic.
func TestQuantileSketchRelativeError(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		q := newQuantileSketch()
		n := rng.IntRange(500, 10000)
		vals := make([]float64, n)
		for i := range vals {
			// Latency-shaped: mostly small with a heavy tail.
			v := float64(rng.IntRange(2, 40))
			if rng.Bool(0.05) {
				v *= float64(rng.IntRange(10, 100))
			}
			vals[i] = v
			q.addN(v, 1)
		}
		sort.Float64s(vals)
		sum := q.summarize("test")
		for i, p := range []float64{0.5, 0.9, 0.99} {
			exact := vals[int(p*float64(n-1))]
			got := []float64{sum.P50, sum.P90, sum.P99}[i]
			if rel := math.Abs(got-exact) / exact; rel > quantileAlpha+1e-9 {
				t.Errorf("seed %d: p%.0f = %g, exact %g, rel err %.4f > alpha %.4f",
					seed, p*100, got, exact, rel, quantileAlpha)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// quantileRef is the per-percentile lookup summarize replaced: rebuild
// and sort the bucket keys, walk to the bucket holding rank p*(count-1).
func quantileRef(q *quantileSketch, p float64) float64 {
	if q.count == 0 {
		return 0
	}
	rank := uint64(p * float64(q.count-1))
	if rank < q.zero {
		return 0
	}
	idxs := make([]int, 0, len(q.bkt))
	for i := range q.bkt {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cum := q.zero
	for _, i := range idxs {
		cum += q.bkt[i]
		if rank < cum {
			return 2 * math.Pow(q.gamma, float64(i)) / (q.gamma + 1)
		}
	}
	return 2 * math.Pow(q.gamma, float64(idxs[len(idxs)-1])) / (q.gamma + 1)
}

// TestSummarizeMatchesQuantile holds summarize's one walk to three
// separate lookups, bit for bit, on seeded sketches: empty ones, ones
// wholly or mostly in the zero bucket, a single bucket, heavy weights.
func TestSummarizeMatchesQuantile(t *testing.T) {
	check := func(label string, q *quantileSketch) {
		t.Helper()
		got := q.summarize("k")
		if got.Kind != "k" || got.Count != q.count || got.RelError != quantileAlpha {
			t.Fatalf("%s: header %+v", label, got)
		}
		for i, p := range []float64{0.50, 0.90, 0.99} {
			g, w := []float64{got.P50, got.P90, got.P99}[i], quantileRef(q, p)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s (count %d, zero %d, %d buckets): p%.0f = %v, per-call lookup %v",
					label, q.count, q.zero, len(q.bkt), p*100, g, w)
			}
		}
	}
	// A zero bucket ending just before, at or just after a percentile's
	// rank, then two buckets.
	for _, n := range []uint64{2, 11, 101, 1001} {
		for _, p := range []float64{0.50, 0.90, 0.99} {
			r := uint64(p * float64(n-1))
			for z := r - min(r, 1); z <= r+1 && z < n; z++ {
				q := newQuantileSketch()
				q.addN(1, z)
				q.addN(20, (n-z)/2)
				q.addN(300, n-z-(n-z)/2)
				check(fmt.Sprintf("n=%d zero=%d", n, z), q)
			}
		}
	}
	for seed := uint64(0); seed < 300; seed++ {
		rng := stats.NewRNG(seed)
		q := newQuantileSketch()
		for j, n := 0, rng.IntRange(0, 200)*int(seed%4); j < n; j++ {
			v := float64(rng.IntRange(0, 60))
			switch {
			case seed%5 == 1:
				v = 1 // zero bucket only
			case seed%5 == 2:
				v = 37 // one bucket
			case rng.Bool(0.1):
				v *= float64(rng.IntRange(10, 1000))
			}
			q.addN(v, uint64(rng.IntRange(1, 1+int(seed%3)*500)))
		}
		check(fmt.Sprintf("seed %d", seed), q)
	}
}

// TestWindowRing drives the time-bucketed ring with an explicit clock:
// in-window buckets count, out-of-window buckets expire, oversized
// requests clamp to the horizon, and long idle gaps reset cleanly.
func TestWindowRing(t *testing.T) {
	base := time.Unix(1000, 0)
	r := newWindowRing(4, time.Second, 8)

	addPC(r, base, 0xA, 3)
	addPC(r, base.Add(1*time.Second), 0xB, 2)
	addPC(r, base.Add(2*time.Second), 0xA, 1)

	now := base.Add(2500 * time.Millisecond)
	res := r.query(now, 3*time.Second, 10)
	if res.Samples != 6 || res.Buckets != 3 || res.Clamped {
		t.Fatalf("full window: %+v", res)
	}
	if len(res.Rows) != 2 || res.Rows[0].PC != 0xA || res.Rows[0].Count != 4 || res.Rows[1].Count != 2 {
		t.Fatalf("full-window rows: %+v", res.Rows)
	}

	// A 1s lookback from base+2.5s covers [base+1.5s, base+2.5s]: the
	// base+2s bucket fully, and the base+1s bucket partially — bucket
	// granularity means a partially-overlapped bucket contributes whole.
	res = r.query(now, time.Second, 10)
	if res.Samples != 3 || res.Buckets != 2 || res.Rows[0].PC != 0xB || res.Rows[0].Count != 2 {
		t.Fatalf("short window: %+v", res)
	}

	// Requests beyond the horizon clamp.
	res = r.query(now, time.Minute, 10)
	if !res.Clamped || res.Window != 4*time.Second {
		t.Fatalf("clamp: %+v", res)
	}

	// Rotate to base+5s: the ring now covers [base+2s, base+6s), so the
	// base and base+1s buckets have been reused and their data is gone.
	addPC(r, base.Add(5*time.Second), 0xC, 7)
	res = r.query(base.Add(5*time.Second), 4*time.Second, 10)
	if res.Samples != 7+1 || len(res.Rows) != 2 || res.Rows[0].PC != 0xC {
		t.Fatalf("post-rotation: %+v", res)
	}

	// A gap longer than the whole ring resets it.
	addPC(r, base.Add(time.Hour), 0xD, 1)
	res = r.query(base.Add(time.Hour), 4*time.Second, 10)
	if res.Samples != 1 || len(res.Rows) != 1 || res.Rows[0].PC != 0xD {
		t.Fatalf("post-gap: %+v", res)
	}
}

// TestWindowAnswerBoundsCutPCs is the windowed answer's bound property:
// on random zipf aggregates (K from 8 to 64, K/2 to 4K PCs, merged as
// shards into several one-second buckets), an answer cut to n in {1,
// K/2, K, K+1} keeps every row within est-err <= true <= est, and every
// PC it does not list within its Floor, the cut rows' PCs included.
func TestWindowAnswerBoundsCutPCs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 64)
		distinct := rng.IntRange(k/2, 4*k)
		base := time.Unix(1000, 0)
		now := base
		agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{
			TopK: k, WindowBuckets: 8, BucketDur: time.Second, now: func() time.Time { return now },
		})
		truth := make(map[uint64]uint64)
		for shard := 0; shard < rng.IntRange(1, 6); shard++ {
			now = base.Add(time.Duration(shard) * time.Second)
			db := NewDB(16, 0, 4)
			for i, pc := range zipfStream(rng, distinct, rng.IntRange(distinct, 20*distinct)) {
				db.Add(core.Sample{First: latRecord(pc, i)})
				truth[pc]++
			}
			if err := agg.Merge(db); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{1, k / 2, k, k + 1} {
			res := agg.WindowHotPCs(8*time.Second, n)
			listed := make(map[uint64]bool, len(res.Rows))
			for _, e := range res.Rows {
				listed[e.PC] = true
				if tc := truth[e.PC]; e.Count < tc || e.Count-e.Err > tc {
					t.Errorf("seed %d K=%d n=%d: pc %#x est %d err %d true %d", seed, k, n, e.PC, e.Count, e.Err, tc)
					return false
				}
			}
			for pc, tc := range truth {
				if !listed[pc] && tc > res.Floor {
					t.Errorf("seed %d K=%d n=%d: unlisted pc %#x was seen %d times, above the answer's bound %d", seed, k, n, pc, tc, res.Floor)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWalkFeedsWindowRing: the one merge walk leaves SafeDB's ring
// exactly where one write per PC would (same buckets, samples and rows),
// across a bucket boundary, and invalidates a cached answer once.
func TestMergeWalkFeedsWindowRing(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{
		TopK: 32, WindowBuckets: 4, BucketDur: time.Second, now: func() time.Time { return now },
	})
	batched, single := agg.window, newWindowRing(4, time.Second, 32)
	for i, shard := range []*DB{safeShard(1), safeShard(2), safeShard(9)} {
		now = base.Add(time.Duration(i) * 700 * time.Millisecond)
		before := batched.query(now, 4*time.Second, 0)
		for _, pc := range shard.PCs() {
			addPC(single, now, pc, shard.Get(pc).Samples)
		}
		if err := agg.Merge(shard); err != nil {
			t.Fatal(err)
		}
		got, want := batched.query(now, 4*time.Second, 0), single.query(now, 4*time.Second, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: the merge walk left %+v, per-PC writes %+v", i, got, want)
		}
		if got.Samples != before.Samples+shard.Samples() {
			t.Fatalf("shard %d: window holds %d samples after AddDB, want %d (a cached answer survived the write?)",
				i, got.Samples, before.Samples+shard.Samples())
		}
	}
}

// TestSafeDBSketchMatchesExact pins the serving contract for the common
// case (distinct PCs <= K): SafeDB.HotPCs (sketch view) and HotPCsExact
// (locked deep-copy scan) return identical rows, and the view's estimates
// are exact with zero error.
func TestSafeDBSketchMatchesExact(t *testing.T) {
	// Every merge rebuilds rows, so the view is never stale relative to
	// the live DB and the comparison below is exact.
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})
	for seed := uint64(0); seed < 6; seed++ {
		if err := agg.Merge(safeShard(seed)); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(42)
	for i := 0; i < 200; i++ {
		pc := 0x400 + 8*uint64(rng.Intn(13))
		mergeOne(t, agg, core.Sample{First: rec(pc, true, 0, 1, 2, 3, 5, 9)})
	}

	sketch := agg.HotPCs(10)
	exact, _ := agg.HotPCsExact(10)
	if len(sketch) != len(exact) {
		t.Fatalf("len mismatch: sketch %d exact %d", len(sketch), len(exact))
	}
	for i := range sketch {
		if sketch[i].PC != exact[i].PC || sketch[i].Samples != exact[i].Samples {
			t.Fatalf("row %d: sketch pc %#x/%d, exact pc %#x/%d",
				i, sketch[i].PC, sketch[i].Samples, exact[i].PC, exact[i].Samples)
		}
	}
	v := agg.View()
	for _, hv := range v.TopK {
		if hv.MaxErr != 0 || hv.Est != hv.Acc.Samples {
			t.Fatalf("small DB must be exact: %+v", hv)
		}
	}
}

// TestSafeDBSketchBoundsUnderOverflow forces approximation (more distinct
// PCs than K) and checks the published bounds hold against the live DB.
func TestSafeDBSketchBoundsUnderOverflow(t *testing.T) {
	// Every merge rebuilds rows: the bounds below compare published
	// estimates against live truth as of the last merge.
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{TopK: 32})
	rng := stats.NewRNG(9)
	for _, pc := range zipfStream(rng, 500, 4000) {
		mergeOne(t, agg, core.Sample{First: rec(pc, true, 0, 1, 2, 3, 5, 9)})
	}
	v := agg.View()
	if v.Floor == 0 || v.SketchN == 0 {
		t.Fatalf("overflowed sketch should have a floor: %+v", v)
	}
	if v.Floor > v.SketchN/uint64(v.TopKCap) {
		t.Fatalf("floor %d exceeds N/K = %d", v.Floor, v.SketchN/uint64(v.TopKCap))
	}
	for _, hv := range v.TopK {
		truth, _, _ := agg.Get(hv.Acc.PC)
		if hv.Est < truth.Samples || hv.Est-hv.MaxErr > truth.Samples {
			t.Fatalf("pc %#x: est %d err %d true %d", hv.Acc.PC, hv.Est, hv.MaxErr, truth.Samples)
		}
	}
	// Every row the top-10 query returns must be a genuinely hot PC:
	// its true count must beat the guarantee threshold for absent PCs.
	for _, acc := range agg.HotPCs(10) {
		if acc.Samples == 0 {
			t.Fatalf("sketch served a never-sampled PC: %#x", acc.PC)
		}
	}
}

// TestSafeDBViewImmutableUnderRace is the race-hammered snapshot test:
// readers grab views and windowed answers while writers merge at
// full speed. Retained views must never change underneath the reader
// (epochs stay self-consistent, counters monotonic), and the final state
// is exact. Run with -race in CI.
func TestSafeDBViewImmutableUnderRace(t *testing.T) {
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})

	const writers, merges, readers = 4, 30, 6
	var wg sync.WaitGroup
	var stop atomic.Bool

	var wantSamples uint64
	for w := 0; w < writers; w++ {
		wantSamples += merges * 50 // safeShard adds 50 singles
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < merges; i++ {
				if err := agg.Merge(safeShard(uint64(w*merges + i))); err != nil {
					t.Error(err)
					return
				}
				mergeOne(t, agg, core.Sample{First: rec(0x999, true, 0, 1, 2, 3, 5, 9)})
				agg.ReverseLoss(0) // exercise counter-only publishes
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				v := agg.View()
				if v.Epoch < lastEpoch {
					t.Error("epoch went backwards")
					return
				}
				lastEpoch = v.Epoch
				// An immutable view must be internally consistent no
				// matter how long we hold it: re-reading fields of the
				// SAME view must agree with themselves.
				c1, c2 := v.Counters, v.Counters
				if c1 != c2 {
					t.Error("view counters changed under reader")
					return
				}
				for i := range v.TopK {
					hv := &v.TopK[i]
					if hv.Est < hv.Acc.Samples {
						t.Errorf("view row under-estimates: est %d < samples %d", hv.Est, hv.Acc.Samples)
						return
					}
					if v.Get(hv.Acc.PC) != hv {
						t.Error("view byPC index inconsistent")
						return
					}
				}
				_ = agg.HotPCs(5)
				_ = agg.WindowHotPCs(30*time.Second, 5)
				_ = agg.CountersSnapshot()
			}
		}()
	}

	// Let writers finish, then release readers.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	go func() {
		for i := 0; i < writers*merges; i++ {
			if agg.CountersSnapshot().Samples >= wantSamples+uint64(writers*merges) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	<-done

	got := agg.CountersSnapshot()
	want := wantSamples + writers*merges // fifty-sample shards + one-sample shards
	if got.Samples != want {
		t.Fatalf("final samples = %d, want %d", got.Samples, want)
	}
	if agg.View().Counters != got {
		t.Fatal("published view disagrees with CountersSnapshot")
	}
}

// TestViewLatencySummaries checks that the published quantile summaries
// cover every latency kind plus in-progress, with counts and bounded
// error, fed one-sample shards and a fifty-sample one.
func TestViewLatencySummaries(t *testing.T) {
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})
	for i := 0; i < 100; i++ {
		mergeOne(t, agg, core.Sample{First: rec(0x40, true, 0, 1, 2, 3, 50, 100)})
	}
	if err := agg.Merge(safeShard(3)); err != nil {
		t.Fatal(err)
	}
	v := agg.View()
	if len(v.Latencies) != NumLatencyKinds+1 {
		t.Fatalf("got %d summaries, want %d", len(v.Latencies), NumLatencyKinds+1)
	}
	byKind := map[string]quantileSummary{}
	for _, s := range v.Latencies {
		byKind[s.Kind] = s
	}
	ip, ok := byKind["inprogress"]
	if !ok || ip.Count == 0 {
		t.Fatalf("missing inprogress summary: %+v", v.Latencies)
	}
	// The Add-path stream fed 100 identical fetch->retire-ready spans of
	// 50 cycles plus the shard's; p50 must be within alpha of 50 or the
	// shard's 5 — either way far from zero and positive.
	if ip.P50 <= 0 || ip.RelError != quantileAlpha {
		t.Fatalf("inprogress summary wrong: %+v", ip)
	}
}

// mapHeap is the space-saving sketch as it was before its heap went
// slot-indexed: entries live in the heap itself and a PC -> position map
// is rewritten on every swap. TestSpaceSavingMatchesMapHeap replays
// streams through both.
type mapHeap struct {
	k     int
	n     uint64
	heap  []SSEntry
	index map[uint64]int
}

func newMapHeap(k int) *mapHeap { return &mapHeap{k: k, index: make(map[uint64]int, k)} }

func (s *mapHeap) minCount() uint64 {
	if len(s.heap) < s.k {
		return 0
	}
	return s.heap[0].Count
}

func (s *mapHeap) add(pc, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	if i, ok := s.index[pc]; ok {
		s.heap[i].Count += w
		s.siftDown(i)
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, SSEntry{PC: pc, Count: w})
		s.siftUp(len(s.heap) - 1)
		return
	}
	evicted := s.heap[0]
	delete(s.index, evicted.PC)
	s.heap[0] = SSEntry{PC: pc, Count: evicted.Count + w, Err: evicted.Count}
	s.index[pc] = 0
	s.siftDown(0)
}

func (s *mapHeap) items() []SSEntry {
	out := append([]SSEntry(nil), s.heap...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func mergeMapHeaps(a, b *mapHeap) *mapHeap {
	k := min(a.k, b.k)
	type pair struct{ count, err uint64 }
	union := make(map[uint64]pair)
	fa, fb := a.minCount(), b.minCount()
	for _, e := range a.heap {
		union[e.PC] = pair{e.Count, e.Err}
	}
	for _, e := range b.heap {
		if p, ok := union[e.PC]; ok {
			union[e.PC] = pair{p.count + e.Count, p.err + e.Err}
		} else {
			union[e.PC] = pair{e.Count + fa, e.Err + fa}
		}
	}
	for _, e := range a.heap {
		if _, tracked := b.index[e.PC]; !tracked {
			p := union[e.PC]
			union[e.PC] = pair{p.count + fb, p.err + fb}
		}
	}
	m := newMapHeap(k)
	m.n = a.n + b.n
	for pc, p := range union {
		m.heap = append(m.heap, SSEntry{PC: pc, Count: p.count, Err: p.err})
	}
	m.heap = m.items()
	if len(m.heap) > k {
		m.heap = m.heap[:k]
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	for i := range m.heap {
		m.index[m.heap[i].PC] = i
	}
	return m
}

func (s *mapHeap) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.index[s.heap[i].PC] = i
	s.index[s.heap[j].PC] = j
}

func (s *mapHeap) siftUp(i int) {
	s.index[s.heap[i].PC] = i
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[i].Count >= s.heap[parent].Count {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *mapHeap) siftDown(i int) {
	s.index[s.heap[i].PC] = i
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && s.heap[l].Count < s.heap[min].Count {
			min = l
		}
		if r < len(s.heap) && s.heap[r].Count < s.heap[min].Count {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// TestSpaceSavingMatchesMapHeap: the slot-indexed heap makes the same
// comparisons and swaps as the map-indexed one it replaced, so for the
// same add sequence it holds the same rows. Uniform, zipf and tie-heavy
// weighted streams replay through both at K = 1, 7 and 512; after every
// add, items(), minCount() and n must agree, and so must mergeSketches
// of two such sketches and every add after the merge (the merged heap's
// layout decides which tied row the next eviction takes).
func TestSpaceSavingMatchesMapHeap(t *testing.T) {
	type op struct{ pc, w uint64 }
	streams := map[string]func(rng *stats.RNG, k int) []op{
		"uniform": func(rng *stats.RNG, k int) []op {
			ops := make([]op, 2*k+600)
			for i := range ops {
				ops[i] = op{0x400 + 8*uint64(rng.Intn(3*k+5)), uint64(rng.IntRange(1, 9))}
			}
			return ops
		},
		"zipf": func(rng *stats.RNG, k int) []op {
			pcs := zipfStream(rng, 4*k+5, 2*k+600)
			ops := make([]op, len(pcs))
			for i, pc := range pcs {
				ops[i] = op{pc, uint64(rng.IntRange(1, 4))}
			}
			return ops
		},
		// Weight 1 over twice K's population: the floor is nearly always
		// tied, so which tied row sits at the root decides every eviction.
		"ties": func(rng *stats.RNG, k int) []op {
			ops := make([]op, 2*k+600)
			for i := range ops {
				ops[i] = op{0x400 + 8*uint64(rng.Intn(2*k+1)), 1}
			}
			return ops
		},
	}
	same := func(got *spaceSaving, want *mapHeap) bool {
		return got.n == want.n && got.minCount() == want.minCount() && slices.Equal(got.items(), want.items())
	}
	diff := func(t *testing.T, at string, got *spaceSaving, want *mapHeap) {
		t.Helper()
		g, w := got.items(), want.items()
		row := 0
		for row < min(len(g), len(w)) && g[row] == w[row] {
			row++
		}
		t.Fatalf("%s: slot heap n=%d floor=%d, %d rows; map heap n=%d floor=%d, %d rows; first differing row %d",
			at, got.n, got.minCount(), len(g), want.n, want.minCount(), len(w), row)
	}
	for name, stream := range streams {
		for _, k := range []int{1, 7, 512} {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				rng := stats.NewRNG(uint64(k)*31 + uint64(len(name)))
				var got [2]*spaceSaving
				var want [2]*mapHeap
				for side := range got {
					got[side], want[side] = newSpaceSaving(k), newMapHeap(k)
					for i, o := range stream(rng, k) {
						got[side].add(o.pc, o.w)
						want[side].add(o.pc, o.w)
						if !same(got[side], want[side]) {
							diff(t, fmt.Sprintf("sketch %d, add %d (pc %#x w %d)", side, i, o.pc, o.w), got[side], want[side])
						}
					}
				}
				gm, wm := mergeSketches(got[0], got[1]), mergeMapHeaps(want[0], want[1])
				if !same(gm, wm) {
					diff(t, "merged", gm, wm)
				}
				for i, o := range stream(rng, k)[:k+50] {
					gm.add(o.pc, o.w)
					wm.add(o.pc, o.w)
					if !same(gm, wm) {
						diff(t, fmt.Sprintf("merged, add %d (pc %#x w %d)", i, o.pc, o.w), gm, wm)
					}
				}
			})
		}
	}
}

// TestMergeIsDeterministic: the same six zipf shards merged in the same
// order into fresh aggregates publish the same top-K rows, floor and
// windowed answer every time — whether each shard arrives decoded from
// its image (the row-slice walk) or built in process (the sorted walk).
// A merge that fed the sketches in map order gives every aggregate its
// own estimates and error bounds.
func TestMergeIsDeterministic(t *testing.T) {
	now := time.Unix(1000, 0)
	rng := stats.NewRNG(17)
	shards := make([]*DB, 6)
	images := make([][]byte, len(shards))
	for i := range shards {
		shards[i] = NewDB(16, 0, 4)
		for draw, pc := range zipfStream(rng, 3000, 4000) {
			shards[i].Add(core.Sample{First: latRecord(pc, draw)})
		}
		var buf bytes.Buffer
		if err := shards[i].Save(&buf); err != nil {
			t.Fatal(err)
		}
		images[i] = buf.Bytes()
	}
	type outcome struct {
		rows   []HotView
		floor  uint64
		window WindowResult
	}
	merged := func(decoded bool) outcome {
		agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{
			TopK: 64, WindowBuckets: 4, BucketDur: time.Second, now: func() time.Time { return now },
		})
		for i, shard := range shards {
			if decoded {
				var err error
				if shard, err = LoadDB(bytes.NewReader(images[i])); err != nil {
					t.Fatal(err)
				}
			}
			if err := agg.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		v := agg.View()
		return outcome{v.TopK, v.Floor, agg.WindowHotPCs(4*time.Second, 64)}
	}
	want := merged(true)
	if want.floor == 0 {
		t.Fatal("the sketch never filled; the test needs more distinct PCs than TopK")
	}
	for trial := 0; trial < 3; trial++ {
		for _, decoded := range []bool{true, false} {
			got := merged(decoded)
			if got.floor != want.floor {
				t.Fatalf("trial %d (decoded %v): floor %d, first merge %d", trial, decoded, got.floor, want.floor)
			}
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Fatalf("trial %d (decoded %v): top-K rows differ from the first merge's", trial, decoded)
			}
			if !reflect.DeepEqual(got.window, want.window) {
				t.Fatalf("trial %d (decoded %v): windowed answer differs from the first merge's", trial, decoded)
			}
		}
	}
}

// homeAt returns pc's home entry in a pcIndex table of size entries.
func homeAt(pc uint64, size int) int {
	x := pcIndex{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	return x.home(pc)
}

// pcsAt returns n PCs from from upward, in steps of 4, whose home in a
// table of size entries is home.
func pcsAt(from uint64, n, home, size int) []uint64 {
	var out []uint64
	for pc := from; len(out) < n; pc += 4 {
		if homeAt(pc, size) == home {
			out = append(out, pc)
		}
	}
	return out
}

// TestPCIndexMatchesMap drives seeded put/get/del sequences through the
// space-saving index and through a Go map, and after every step looks
// every key of the stream up in both. The key pools hold PC 0, PCs that
// share a home entry, and PCs homed on the last entries of the table,
// whose probe clusters wrap past its end — the case a backward-shift
// delete gets wrong if it forgets that the cluster continues at entry
// 0. The last pool grows the index from empty to 1024 PCs (a 2048-entry
// table, whose last entry eight of them call home) and deletes it back
// to nothing in random order.
func TestPCIndexMatchesMap(t *testing.T) {
	check := func(t *testing.T, step string, x *pcIndex, want map[uint64]int32, pool []uint64) {
		t.Helper()
		if x.n != len(want) {
			t.Fatalf("%s: index holds %d PCs, map %d", step, x.n, len(want))
		}
		if size := len(x.tab); size > 0 && (size < 16 || size&(size-1) != 0 || 2*x.n > size) {
			t.Fatalf("%s: %d PCs in a %d-entry table, want a power of two >= 16, at most half full", step, x.n, size)
		}
		for _, pc := range pool {
			got, ok := x.get(pc)
			w, wok := want[pc]
			if ok != wok || got != w {
				t.Fatalf("%s: get(%#x) = %d, %v; map holds %d, %v", step, pc, got, ok, w, wok)
			}
		}
	}
	wrap16 := append(pcsAt(0x400000, 3, 15, 16), pcsAt(0x400000, 3, 14, 16)...)
	pools := map[string][]uint64{
		"zero+shared": append([]uint64{0}, append(pcsAt(0x400000, 5, 3, 16), pcsAt(0x400000, 4, 4, 16)...)...),
		"wrap16":      append([]uint64{0}, append(wrap16, pcsAt(0x400000, 3, 0, 16)...)...),
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 200; seed++ {
				rng := stats.NewRNG(seed)
				var x pcIndex
				want := map[uint64]int32{}
				for step := 0; step < 60; step++ {
					// put takes only an absent PC, as the sketch calls it.
					pc := pool[rng.Intn(len(pool))]
					op := "del"
					if _, held := want[pc]; !held && rng.Bool(0.7) {
						op = "put"
						slot := int32(rng.Intn(512))
						x.put(pc, slot)
						want[pc] = slot
					} else {
						x.del(pc)
						delete(want, pc)
					}
					check(t, fmt.Sprintf("seed %d step %d (%s %#x)", seed, step, op, pc), &x, want, pool)
				}
			}
		})
	}
	t.Run("grow", func(t *testing.T) {
		rng := stats.NewRNG(5)
		pool := append([]uint64{0}, pcsAt(0x400000, 8, 2047, 2048)...)
		for pc := uint64(0x400004); len(pool) < 1024; pc += 4 * uint64(rng.IntRange(1, 3)) {
			pool = append(pool, pc)
		}
		var x pcIndex
		want := map[uint64]int32{}
		for i, pc := range pool {
			x.put(pc, int32(i))
			want[pc] = int32(i)
			check(t, fmt.Sprintf("put %d", i), &x, want, pool)
		}
		if len(x.tab) != 2048 {
			t.Fatalf("1024 PCs in a %d-entry table, want 2048", len(x.tab))
		}
		for i, j := range rng.Perm(len(pool)) {
			x.del(pool[j])
			delete(want, pool[j])
			check(t, fmt.Sprintf("del %d", i), &x, want, pool)
		}
	})
}

// TestQuantileAddNDomain feeds addN what a corrupt or overflowing mean
// could be: NaN and -Inf count as zero latency, and +Inf, MaxFloat64
// and 2^64 all land in the top bucket, so the bucket slice never grows
// past that bucket whatever is fed.
func TestQuantileAddNDomain(t *testing.T) {
	q := newQuantileSketch()
	for _, v := range []float64{math.NaN(), math.Inf(-1), -5} {
		q.addN(v, 1)
	}
	if q.zero != 3 || len(q.bkt) != 0 {
		t.Fatalf("NaN, -Inf and -5: zero bucket %d, %d buckets; want 3 and none", q.zero, len(q.bkt))
	}
	top := newQuantileSketch()
	top.addN(float64(math.MaxUint64), 1)
	for _, v := range []float64{math.Inf(1), math.MaxFloat64, float64(math.MaxUint64)} {
		q.addN(v, 1)
	}
	if len(q.bkt) != len(top.bkt) || q.bkt[len(q.bkt)-1] != 3 {
		t.Fatalf("+Inf, MaxFloat64, 2^64: %d buckets, top holds %d; want %d buckets, top holds 3",
			len(q.bkt), q.bkt[len(q.bkt)-1], len(top.bkt))
	}
	if size := cap(q.bkt) * 8; size > 4<<10 {
		t.Fatalf("bucket slice is %d B, want <= 4 KiB", size)
	}
	s := q.summarize("k")
	if s.P50 != 0 || s.P99 < 0x1p64*(1-quantileAlpha) || s.P99 > 0x1p64*(1+quantileAlpha) {
		t.Fatalf("summary %+v, want p50 0 and p99 within %v of 2^64", s, quantileAlpha)
	}
	if n := testing.AllocsPerRun(10, func() { q.addN(math.Inf(1), 1) }); n != 0 {
		t.Fatalf("adding to an existing bucket allocates %v times", n)
	}
}
