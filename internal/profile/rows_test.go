package profile

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"profileme/internal/stats"
)

// TestRowIndexMatchesMap holds the slot index to a Go map over random
// and strided PCs, PC 0 and 2^64-4 among them: every PC the database
// gained finds the slot it was given, an absent one finds nothing, a
// PC offered again keeps its slot, and the table stays at most half
// full. The whole map is checked after every resize, so each growth's
// rehash is covered.
func TestRowIndexMatchesMap(t *testing.T) {
	rng := stats.NewRNG(61)
	streams := map[string]func(i int) uint64{
		"random":  func(int) uint64 { return rng.Uint64() },
		"strided": func(i int) uint64 { return 0x400000 + 4*uint64(i) },
		"page":    func(i int) uint64 { return uint64(i) << 12 },
		"narrow":  func(int) uint64 { return 0x1000 + 4*uint64(rng.Intn(3000)) },
	}
	for name, next := range streams {
		db := NewDB(64, 0, 4)
		want := map[uint64]int32{}
		check := func(when string) {
			t.Helper()
			for pc, slot := range want {
				if got, a, _ := db.find(pc); a == nil || got != slot || a != db.row(slot) || a.PC != pc {
					t.Fatalf("%s, %s: PC %#x finds slot %d (row %v), want %d", name, when, pc, got, a, slot)
				}
			}
			for i := 0; i < 64; i++ {
				if pc := rng.Uint64(); !hasPC(want, pc) {
					if _, a, _ := db.find(pc); a != nil {
						t.Fatalf("%s, %s: absent PC %#x found", name, when, pc)
					}
				}
			}
			if db.n != len(want) || 2*db.n > len(db.index) {
				t.Fatalf("%s, %s: %d rows for %d PCs in a table of %d", name, when, db.n, len(want), len(db.index))
			}
		}
		pcs := []uint64{0, math.MaxUint64 - 3}
		for i := 0; i < 5000; i++ {
			pcs = append(pcs, next(i))
		}
		size := 0
		for i, pc := range pcs {
			slot, _ := db.slotOf(pc)
			if old, ok := want[pc]; ok {
				if slot != old {
					t.Fatalf("%s: PC %#x offered again moved from slot %d to %d", name, pc, old, slot)
				}
				continue
			}
			if int(slot) != len(want) {
				t.Fatalf("%s: new PC %#x took slot %d, want the next, %d", name, pc, slot, len(want))
			}
			want[pc] = slot
			if len(db.index) != size {
				size = len(db.index)
				check("after a resize")
			}
			if i%997 == 0 {
				check("between resizes")
			}
		}
		check("at the end")
		if size < 1<<13 {
			t.Fatalf("%s: the table only grew to %d", name, size)
		}
	}
}

func hasPC(m map[uint64]int32, pc uint64) bool {
	_, ok := m[pc]
	return ok
}

// TestChunksGrowByAQuarter holds the row table to its spare-row bound:
// every chunk but the newest is full, and the newest holds at most
// growStep rows more than it uses — a quarter of the database, at most
// a quarter of a chunk — with its allocation rounded up to a size class
// (Go's classes above 1 KB are at most 19% apart).
func TestChunksGrowByAQuarter(t *testing.T) {
	db := NewDB(64, 0, 4)
	for i := 0; i < 4*chunkRows+17; i++ {
		db.slotOf(0x400000 + 4*uint64(i))
		last := db.chunks[len(db.chunks)-1]
		for c, ch := range db.chunks[:len(db.chunks)-1] {
			if len(ch) != chunkRows {
				t.Fatalf("%d rows: chunk %d holds %d rows, want a full %d", db.n, c, len(ch), chunkRows)
			}
		}
		step := min(max(db.n/4, 1), chunkRows/4)
		if cap(last) > chunkRows || cap(last) > firstChunkRows && float64(cap(last)) > 1.19*float64(len(last)+step) {
			t.Fatalf("%d rows: the newest chunk holds %d of %d rows", db.n, len(last), cap(last))
		}
	}
}

// TestPCAccumHasNoPointers: a row holds no pointer, so the rows sit in
// memory the garbage collector never scans and a copy of a row shares
// nothing. A slice, map, string or pointer field fails it.
func TestPCAccumHasNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: a row must hold no pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(PCAccum{}), "PCAccum")
}

// TestDBFootprint holds a database's retained bytes per PC. A row is
// 240 bytes. In-process databases of 2,048 and 20,195 PCs (a wide
// shard, ingest_wide's aggregate) and a decoded one of 65,536 (the
// query_mix aggregate) retain at most 260 B per PC: one row, at most
// half-full 4-byte index entries, and at most a quarter chunk of spare
// rows.
// The Go map of pointers to separately allocated rows these replaced
// took 300-333 B per PC; small databases of 30, 129 and 421 PCs retain
// no more than they did with it (333, 327 and 311 B per PC).
func TestDBFootprint(t *testing.T) {
	perPC := func(db func() *DB, pcs int) float64 {
		return float64(retainedBy(func() any { return db() })) / float64(pcs)
	}
	for _, c := range []struct {
		pcs int
		max float64
	}{{30, 333}, {129, 327}, {421, 311}, {2048, 260}, {20195, 260}} {
		got := perPC(func() *DB { return aggregateOf(c.pcs) }, c.pcs)
		t.Logf("in-process DB of %d PCs: %.1f B per PC", c.pcs, got)
		if got > c.max {
			t.Errorf("an in-process DB of %d PCs retains %.1f B per PC, want <= %.0f", c.pcs, got, c.max)
		}
	}

	const decoded = 1 << 16
	var img bytes.Buffer
	if err := aggregateOf(decoded).Save(&img); err != nil {
		t.Fatal(err)
	}
	got := perPC(func() *DB {
		db, err := LoadDB(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}, decoded)
	t.Logf("decoded DB of %d PCs: %.1f B per PC", decoded, got)
	if got > 260 {
		t.Errorf("a decoded DB of %d PCs retains %.1f B per PC, want <= 260", decoded, got)
	}
}
