package profile

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// A collector takes shards of two shapes, each checkpointed every 8
// merges: wide shards of 2048 PCs into an aggregate of 2^16 (the
// runbook's sketch geometry, ingest_wide), and narrow ones of 32 PCs
// into an aggregate of 64 (a simulator kernel's shard, ingest_narrow).
const (
	wideAggPCs   = 1 << 16
	wideShardPCs = 2048
	wideCadence  = 8
)

// submitAlloc is what one submit allocates on the collector's merge
// path — LoadDB of its shard, SafeDB.Merge into the warm aggregate, and
// an eighth of one checkpoint image (SafeDB.Save) — as {allocations,
// bytes}. Each merge hands its shard's rows back, so the next LoadDB
// reuses them. A run may exceed neither by more than 15%; lower a value
// when a change allocates less. Under the race detector sync.Pool drops
// a random quarter of what is put back, so a race build is held to race:
// the cost of the path before its rows were reused.
var submitAlloc = []struct {
	shape           string
	aggPCs, shardPC int
	want, race      [2]uint64
}{
	{"wide", wideAggPCs, wideShardPCs, [2]uint64{14, 236440}, [2]uint64{18, 818056}},
	{"narrow", 64, 32, [2]uint64{14, 22296}, [2]uint64{18, 31880}},
}

// latRecord is one retired sample at pc with a latency that varies with
// draw, so the quantile sketches see more than one bucket.
func latRecord(pc uint64, draw int) core.Record {
	lat := int64(5 + draw%40)
	return rec(pc, true, 0, 1, 2, 3, 3+lat, 4+lat)
}

// aggregateOf holds one sample for every PC of a population of pcs.
func aggregateOf(pcs int) *DB {
	db := NewDB(64, 0, 4)
	for i := 0; i < pcs; i++ {
		db.Add(core.Sample{First: latRecord(0x400000+4*uint64(i), i)})
	}
	return db
}

// shardOf draws skewed PCs from a population of popPCs until it holds
// pcs of them, and returns its Save image.
func shardOf(t testing.TB, seed uint64, pcs, popPCs int) []byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	db := NewDB(64, 0, 4)
	for draw := 0; db.n < pcs; draw++ {
		// Squaring a uniform draw skews it toward the low PCs.
		u := rng.Float64()
		db.Add(core.Sample{First: latRecord(0x400000+4*uint64(u*u*float64(popPCs)), draw)})
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWideMergeAlloc is the allocation gate of the collector's merge
// path (a table, in the style of TestPipelineSteadyStateAlloc), plus the
// property that keeps a decoded image cheap: LoadDB allocates a constant
// number of times whatever the image's size — the rows are one slice and
// the PC index one table of slots, not one allocation per PC.
func TestWideMergeAlloc(t *testing.T) {
	// One P: a buffer sync.Pool holds in one P's private slot is not
	// seen from another, so a goroutine that migrates would count a
	// scheduling accident as an allocation.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	now := time.Unix(1000, 0)
	for _, row := range submitAlloc {
		agg := NewSafeDBWith(aggregateOf(row.aggPCs), SketchConfig{
			TopK: 512, WindowBuckets: 60, BucketDur: time.Second, now: func() time.Time { return now },
		})
		shards := make([][]byte, wideCadence)
		for i := range shards {
			shards[i] = shardOf(t, uint64(i+1), row.shardPC, row.aggPCs)
		}
		var image bytes.Buffer
		cycle := func() {
			for _, shard := range shards {
				db, err := LoadDB(bytes.NewReader(shard))
				if err != nil {
					t.Fatal(err)
				}
				if err := agg.Merge(db); err != nil {
					t.Fatal(err)
				}
			}
			image.Reset()
			if err := agg.Save(&image); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm: full sketches, Save's accumulator list, the image buffer

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / wideCadence
		size := (after.TotalAlloc - before.TotalAlloc) / wideCadence
		t.Logf("per %s submit: %d allocations, %d B", row.shape, allocs, size)
		want := row.want
		if raceEnabled {
			want = row.race
		}
		if msg := allocExcess(allocs, size, want); msg != "" {
			t.Errorf("per %s submit: %s", row.shape, msg)
		}

		for what, img := range map[string][]byte{"shard": shards[0], "checkpoint image": image.Bytes()} {
			db, err := LoadDB(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			rows := db.n
			index := testing.AllocsPerRun(5, func() { _ = make([]uint32, indexSize(rows)) })
			load := testing.AllocsPerRun(5, func() {
				if _, err := LoadDB(bytes.NewReader(img)); err != nil {
					t.Fatal(err)
				}
			})
			if extra := load - index; extra > maxLoadAllocs {
				t.Errorf("LoadDB of a %d-PC %s %s: %.0f allocations beyond its PC index's %.0f, want O(1) (<= %d)",
					rows, row.shape, what, extra, index, maxLoadAllocs)
			}
		}
	}
}

// maxLoadAllocs bounds what LoadDB allocates besides its PC index for
// an image without pair metrics or retained addresses, whatever its row
// count: the framing reads, the payload, the rows, the database — 8, or
// 10 under the race detector.
const maxLoadAllocs = 12

// allocExcess names what a run allocated beyond want by more than 15%,
// or returns "". Both counts are gated: fewer but far larger allocations
// must not read as a win.
func allocExcess(allocs, size uint64, want [2]uint64) string {
	switch {
	case float64(allocs) > 1.15*float64(want[0]):
		return fmt.Sprintf("%d allocations, want <= %d + 15%%", allocs, want[0])
	case float64(size) > 1.15*float64(want[1]):
		return fmt.Sprintf("%d bytes, want <= %d + 15%%", size, want[1])
	}
	return ""
}

// retainedBy returns the live heap a value built by build holds: the
// smallest difference, over three builds, between the heap after two
// full collections with the value alive and before it was built. Two
// collections empty sync.Pool's victim cache too, and the smallest of
// three discards another goroutine's allocation during one build.
func retainedBy(build func() any) int64 {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	best := int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		before := live()
		v := build()
		best = min(best, live()-before)
		runtime.KeepAlive(v)
	}
	return best
}

// TestSketchFootprint holds the sketch layer to what it was fed. An
// empty collector with the default geometry (K = 512, 60 one-second
// window buckets) retained 1.14 MB while each of the ring's 60 sketches
// pre-sized a Go map for K PCs; now each sketch grows with its PCs. One
// merged 300-PC shard adds space in proportion to its 300 PCs (the
// aggregate's rows, the top-K sketch and one window bucket), nowhere
// near 60 × K counters. A full K = 512 sketch retains no more than it
// did with a Go map index (34,464 B), and its index no more than that
// map's 18,064 B.
func TestSketchFootprint(t *testing.T) {
	const emptyMax = 32 << 10
	empty := retainedBy(func() any { return NewSafeDBWith(NewDB(64, 0, 4), SketchConfig{}) })
	t.Logf("empty SafeDB retains %d B", empty)
	if empty > emptyMax {
		t.Errorf("an empty default SafeDB retains %d B, want <= %d", empty, emptyMax)
	}

	const shardPCs, perPC = 300, 1024
	img := shardOf(t, 7, shardPCs, 4*shardPCs)
	merged := retainedBy(func() any {
		s := NewSafeDBWith(NewDB(64, 0, 4), SketchConfig{})
		db, err := LoadDB(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(db); err != nil {
			t.Fatal(err)
		}
		return s
	})
	t.Logf("after one %d-PC shard: %d B (%d B per PC over empty)", shardPCs, merged, (merged-empty)/shardPCs)
	if merged-empty > shardPCs*perPC {
		t.Errorf("one %d-PC shard adds %d B, want <= %d B per PC", shardPCs, merged-empty, perPC)
	}

	const k, fullMax, indexMax = 512, 34464, 18064
	fill := func() *spaceSaving {
		sk := newSpaceSaving(k)
		for i := uint64(0); i < 4*k; i++ {
			sk.add(0x400000+4*i, i%7+1)
		}
		return sk
	}
	full := retainedBy(func() any { return fill() })
	sk := fill()
	index := int64(cap(sk.index.tab)) * int64(unsafe.Sizeof(pcEntry{}))
	t.Logf("full K=%d sketch retains %d B, its index %d B", k, full, index)
	if len(sk.slots) != k {
		t.Fatalf("sketch holds %d PCs, want a full %d", len(sk.slots), k)
	}
	if full > fullMax || index > indexMax {
		t.Errorf("full K=%d sketch retains %d B (want <= %d), its index %d B (want <= %d)", k, full, fullMax, index, indexMax)
	}
}
