package profile

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"profileme/internal/core"
	"profileme/internal/stats"
)

// recycleDB is an empty database of the paired (W=80) or the unpaired
// (W=0) configuration.
func recycleDB(paired bool, retain int) *DB {
	db := NewDB(16, 0, 4)
	if paired {
		db.W = 80
	}
	db.RetainAddrs = retain
	return db
}

// recycleShard builds a shard of 20 to 200 PCs. A paired shard counts
// its pair columns on the rows a pair touched. Only some samples carry an
// address, so rows with and without addresses sit side by side.
func recycleShard(rng *stats.RNG, paired bool, retain int) *DB {
	db := recycleDB(paired, retain)
	pcs := 20 + rng.Intn(180)
	sample := func() core.Record {
		r := rec(0x1000+4*uint64(rng.Intn(pcs)), rng.Intn(4) > 0, 0, 1, 2, 3, 4+int64(rng.Intn(30)), 40)
		if rng.Intn(3) == 0 {
			r.Addr, r.AddrValid = 0x8000+8*uint64(rng.Intn(1000)), true
		}
		return r
	}
	for i := 0; i < 3*pcs; i++ {
		if paired && rng.Intn(2) == 0 {
			db.Add(core.Sample{First: sample(), Second: sample(), Paired: true})
		} else {
			db.Add(core.Sample{First: sample()})
		}
	}
	return db
}

// recycleRetain is what the aggregates retain: more addresses than any
// shard, so an address a recycled row kept from its last shard would be
// folded in.
const recycleRetain = 8

// TestRecycledSlabCarriesNothing: a shard decoded into a recycled slab
// (its rows and its PC index's table) holds exactly what its image says.
// Paired shards and unpaired ones, with and without retained addresses,
// are decoded concurrently and merged in order into two SafeDBs, each
// merge handing its shard's slab back for a later decode of the other
// shape. Every decoded shard's index holds its rows and nothing else,
// and each aggregate's Save bytes must equal a plain DB.Merge of fresh
// decodes of the same images. An index entry left from the slab's last
// shard fails the first; a row value left from it, the second.
func TestRecycledSlabCarriesNothing(t *testing.T) {
	const rounds, kinds, inFlight, workers = 8, 8, 2, 3
	rng := stats.NewRNG(39)
	images := make([][]byte, kinds)
	for k := range images {
		var buf bytes.Buffer
		if err := recycleShard(rng, k%2 == 0, []int{0, 2, 5}[k%3]).Save(&buf); err != nil {
			t.Fatal(err)
		}
		images[k] = buf.Bytes()
	}
	var aggs [2]*SafeDB
	for i := range aggs {
		aggs[i] = NewSafeDBWith(recycleDB(i == 0, recycleRetain), SketchConfig{})
	}

	// Decode ahead of the merges by at most inFlight shards, so decodes
	// take slabs the merges just gave back, on other goroutines.
	total := rounds * kinds
	ready := make([]chan *DB, total)
	for i := range ready {
		ready[i] = make(chan *DB, 1)
	}
	jobs, tokens := make(chan int), make(chan struct{}, inFlight)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				db, err := LoadDB(bytes.NewReader(images[i%kinds]))
				if err != nil {
					t.Error(err)
				}
				ready[i] <- db
			}
		}()
	}
	go func() {
		for i := 0; i < total; i++ {
			tokens <- struct{}{}
			jobs <- i
		}
		close(jobs)
	}()
	var last *DB
	for i := 0; i < total; i++ {
		if last = <-ready[i]; last == nil {
			t.FailNow()
		}
		if msg := indexHoldsRows(last); msg != "" {
			t.Fatalf("decode %d (image %d): %s", i, i%kinds, msg)
		}
		if err := aggs[i%kinds%2].Merge(last); err != nil {
			t.Fatal(err)
		}
		<-tokens
	}
	if err := aggs[(total-1)%kinds%2].Merge(last); err == nil {
		t.Error("a shard SafeDB.Merge consumed merged a second time")
	}

	// The reference decodes take no recycled slab: two collections empty
	// the pool.
	runtime.GC()
	runtime.GC()
	for i, agg := range aggs {
		want := recycleDB(i == 0, recycleRetain)
		for r := 0; r < rounds; r++ {
			for k := i; k < kinds; k += 2 {
				db, err := LoadDB(bytes.NewReader(images[k]))
				if err != nil {
					t.Fatal(err)
				}
				if err := want.Merge(db); err != nil {
					t.Fatal(err)
				}
			}
		}
		var got, exp bytes.Buffer
		if err := agg.Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := want.Save(&exp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Errorf("aggregate %d (paired %v): recycled decodes saved %d bytes, fresh decodes %d, and they differ",
				i, i == 0, got.Len(), exp.Len())
		}
	}
}

// indexHoldsRows reports how db's PC index differs from its rows: it
// must hold one entry per row, each row's PC finding that row.
func indexHoldsRows(db *DB) string {
	entries := 0
	for _, ref := range db.index {
		if ref != 0 {
			entries++
		}
	}
	if entries != db.n {
		return fmt.Sprintf("%d index entries for %d rows", entries, db.n)
	}
	msg := ""
	db.each(func(slot int32, a *PCAccum) {
		if got, row, _ := db.find(a.PC); msg == "" && (row != a || got != slot) {
			msg = fmt.Sprintf("PC %#x in slot %d finds slot %d (row %p, want %p)", a.PC, slot, got, row, a)
		}
	})
	return msg
}
