package profile

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// The wide-merge shape: a collector aggregate of 2^16 PCs (the runbook's
// sketch geometry) taking shards of 2048 PCs each, checkpointed every 8
// merges.
const (
	wideAggPCs   = 1 << 16
	wideShardPCs = 2048
	wideCadence  = 8
)

// wideSubmitAlloc is what one wide submit allocates on the collector's
// merge path — LoadDB of its shard, SafeDB.Merge into the warm aggregate,
// and an eighth of one checkpoint image (SafeDB.Save) — as {allocations,
// bytes}. A run may exceed neither by more than 15%; lower a value when
// a change allocates less.
var wideSubmitAlloc = [2]uint64{31067, 6436848}

// wideRecord is one retired sample at pc with a latency that varies with
// draw, so the quantile sketches see more than one bucket.
func wideRecord(pc uint64, draw int) core.Record {
	lat := int64(5 + draw%40)
	return rec(pc, true, 0, 1, 2, 3, 3+lat, 4+lat)
}

// wideAggregate holds one sample for every PC of the population.
func wideAggregate() *DB {
	db := NewDB(64, 0, 4)
	for i := 0; i < wideAggPCs; i++ {
		db.Add(core.Sample{First: wideRecord(0x400000+4*uint64(i), i)})
	}
	return db
}

// wideShard draws skewed PCs from the population until it holds
// wideShardPCs of them, and returns its Save image.
func wideShard(t testing.TB, seed uint64) []byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	db := NewDB(64, 0, 4)
	for draw := 0; len(db.byPC) < wideShardPCs; draw++ {
		// Squaring a uniform draw skews it toward the low PCs.
		u := rng.Float64()
		db.Add(core.Sample{First: wideRecord(0x400000+4*uint64(u*u*wideAggPCs), draw)})
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWideMergeAlloc is the allocation gate of the collector's wide path
// (one table row, in the style of TestPipelineSteadyStateAlloc), plus the
// two properties that keep a decoded shard cheap: LoadDB allocates O(1)
// beyond gob's own decode of the payload — the database points into the
// decoded rows instead of copying each one — and a 2^16-PC image, which
// gob builds in chunks, loads with no slack capacity behind it.
func TestWideMergeAlloc(t *testing.T) {
	now := time.Unix(1000, 0)
	agg := NewSafeDBWith(wideAggregate(), SketchConfig{
		TopK: 512, WindowBuckets: 60, BucketDur: time.Second, Now: func() time.Time { return now },
	})
	shards := make([][]byte, wideCadence)
	for i := range shards {
		shards[i] = wideShard(t, uint64(i+1))
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
	cycle() // warm: gob's type caches, full sketches, Save's accumulator list

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / wideCadence
	size := (after.TotalAlloc - before.TotalAlloc) / wideCadence
	t.Logf("per wide submit: %d allocations, %d B", allocs, size)
	if msg := allocExcess(allocs, size, wideSubmitAlloc); msg != "" {
		t.Errorf("per wide submit: %s", msg)
	}

	payload := shards[0][headerBytes : len(shards[0])-4]
	decode := testing.AllocsPerRun(5, func() {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(new(dbImage)); err != nil {
			t.Fatal(err)
		}
	})
	load := testing.AllocsPerRun(5, func() {
		if _, err := LoadDB(bytes.NewReader(shards[0])); err != nil {
			t.Fatal(err)
		}
	})
	if extra := load - decode; extra > 32 {
		t.Errorf("LoadDB of a %d-PC shard: %.0f allocations beyond gob's %.0f, want O(1) (<= 32)",
			wideShardPCs, extra, decode)
	}

	img, err := decodeImage(image.Bytes()[headerBytes : image.Len()-4])
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Accums) != wideAggPCs || cap(img.Accums) != len(img.Accums) {
		t.Errorf("2^16-PC image decoded to len %d cap %d, want cap == len == %d",
			len(img.Accums), cap(img.Accums), wideAggPCs)
	}
}

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
