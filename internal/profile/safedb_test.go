package profile

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"profileme/internal/core"
)

// safeShard builds a small single-owner shard database with samples
// spread over a deterministic set of PCs.
func safeShard(seed uint64) *DB {
	db := NewDB(16, 0, 4)
	for i := uint64(0); i < 50; i++ {
		pc := 0x400 + 8*((seed+i*7)%13)
		r := rec(pc, true, 0, 1, 2, 3, 5, 9)
		if i%3 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	db.RecordLoss(seed % 5)
	return db
}

// mergeOne feeds agg one sample the way every caller does: as a shard.
// It reports with t.Error, so writer goroutines may call it.
func mergeOne(t testing.TB, agg *SafeDB, smp core.Sample) {
	t.Helper()
	shard := NewDB(16, 0, 4)
	shard.Add(smp)
	if err := agg.Merge(shard); err != nil {
		t.Error(err)
	}
}

// addPC folds weight w for one PC into the ring as one write, the way
// SafeDB.Merge writes a one-PC shard.
func addPC(r *windowRing, now time.Time, pc, w uint64) {
	r.lockHead(now).add(pc, w)
	r.mu.Unlock()
}

// TestSafeDBSaveMatchesDBSave: the sorted accumulator list SafeDB.Save
// keeps between calls never shows in its output. After every merge — ones that add PCs and ones that only
// grow counts — concurrent Saves write exactly the bytes a fresh DB.Save
// of the same database writes.
func TestSafeDBSaveMatchesDBSave(t *testing.T) {
	db := NewDB(16, 0, 4)
	agg := NewSafeDBWith(db, SketchConfig{})
	for _, seed := range []uint64{0, 0, 3, 3, 11, 4} {
		if err := agg.Merge(safeShard(seed)); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := db.Save(&want); err != nil { // no writer is running: reading db directly is safe
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got bytes.Buffer
				if err := agg.Save(&got); err != nil {
					t.Error(err)
				} else if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("after merging shard %d: SafeDB.Save wrote %d bytes that differ from DB.Save's %d", seed, got.Len(), want.Len())
				}
			}()
		}
		wg.Wait()
	}
}

// TestSafeDBConcurrentMergeAndQuery is the wrapper's contract test: many
// goroutines merging shards and recording losses while many others run
// estimator queries, hot-PC scans, and envelope saves. It must pass under
// -race (CI runs the test suite with the race detector on), and the final
// totals must be exact — concurrency may reorder merges but never lose
// or double-count samples.
func TestSafeDBConcurrentMergeAndQuery(t *testing.T) {
	agg := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})

	const (
		writers = 8
		merges  = 20
		readers = 8
	)

	var wantSamples, wantLost uint64
	shards := make([][]*DB, writers)
	for w := range shards {
		shards[w] = make([]*DB, merges)
		for m := range shards[w] {
			db := safeShard(uint64(w*merges + m))
			wantSamples += db.Samples()
			wantLost += db.Lost()
			shards[w][m] = db
		}
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, a := range agg.HotPCs(5) {
					agg.EstimatedCount(a.PC)
					agg.Get(a.PC)
				}
				_ = agg.CountersSnapshot().LossRate
				if r == 0 {
					var buf bytes.Buffer
					if err := agg.Save(&buf); err != nil {
						t.Errorf("concurrent save: %v", err)
						return
					}
				}
			}
		}(r)
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for _, db := range shards[w] {
				extra := db.Lost() // split: merge carries the shard's own loss
				if err := agg.Merge(db); err != nil {
					t.Errorf("merge: %v", err)
					return
				}
				agg.RecordLoss(extra)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got := agg.CountersSnapshot().Samples; got != wantSamples {
		t.Fatalf("samples %d after concurrent merges, want %d", got, wantSamples)
	}
	// Each shard's loss was counted twice on purpose: once via Merge, once
	// via RecordLoss, to exercise both write paths.
	if got := agg.CountersSnapshot().Lost; got != 2*wantLost {
		t.Fatalf("lost %d after concurrent merges, want %d", got, 2*wantLost)
	}
}

// TestSafeDBCopiesDoNotAlias verifies reader results are copies: a
// merge after the read must not change the accumulator a caller holds.
// An accumulator holds no pointer (TestPCAccumHasNoPointers), so a copy
// shares nothing; the addresses are the database's (DB.Addrs).
func TestSafeDBCopiesDoNotAlias(t *testing.T) {
	base := NewDB(16, 0, 4)
	base.Add(core.Sample{First: rec(0x400, true, 0, 1, 2, 3, 5, 9)})
	agg := NewSafeDBWith(base, SketchConfig{})

	got, _, ok := agg.Get(0x400)
	hot := agg.HotPCs(1)
	if !ok || got.Samples != 1 || len(hot) != 1 || hot[0].Samples != 1 {
		t.Fatalf("accumulator not returned: ok=%v %+v %+v", ok, got, hot)
	}

	shard := NewDB(16, 0, 4)
	shard.Add(core.Sample{First: rec(0x400, true, 0, 1, 2, 3, 5, 9)})
	if err := agg.Merge(shard); err != nil {
		t.Fatal(err)
	}

	if now, _, _ := agg.Get(0x400); got.Samples != 1 || hot[0].Samples != 1 || now.Samples != 2 {
		t.Fatalf("held copies %d and %d samples after a merge that took the PC to %d; want 1, 1 and 2",
			got.Samples, hot[0].Samples, now.Samples)
	}
}
