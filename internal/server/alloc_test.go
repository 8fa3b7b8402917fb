package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// handlerAlloc is what one submission allocates end to end, as
// {allocations, bytes}: POST /v1/submit reading the body, DecodeSubmit,
// Service.Submit building its WAL admit record, and the merge — the
// body, the decoded rows and the record are each reused from the last
// submission. A run may exceed neither by more than
// 15%; lower a value when a change allocates less. A race build, where
// sync.Pool drops a random quarter of what is put back, is held to race:
// the cost of the path before those buffers were reused.
var handlerAlloc = []struct {
	shape      string
	pcs        int
	want, race [2]uint64
}{
	{"wide", 2048, [2]uint64{47, 311638}, [2]uint64{67, 1258032}},
	{"narrow", 32, [2]uint64{44, 14766}, [2]uint64{57, 33234}},
}

// spreadShard holds pcs distinct PCs, one to three samples each.
func spreadShard(pcs int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < pcs; i++ {
		for k := 0; k <= i%3; k++ {
			r := core.Record{PC: 0x400000 + 4*uint64(i), LoadComplete: -1}
			for j := range r.StageCycle {
				r.StageCycle[j] = -1
			}
			r.StageCycle[core.StageFetch] = int64(i)
			r.StageCycle[core.StageRetire] = int64(i + 9 + k)
			r.Events = core.EvRetired
			db.Add(core.Sample{First: r})
		}
	}
	return db
}

// TestSubmitHandlerAlloc is the allocation gate of the whole submit
// path, in the style of profile's TestWideMergeAlloc: canonical bodies
// POSTed one at a time to an instance with a WAL, each merged before the
// next is sent.
func TestSubmitHandlerAlloc(t *testing.T) {
	// One P, as in TestWideMergeAlloc: what sync.Pool keeps per P is then
	// seen by every goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, runs = 8, 16
	for _, row := range handlerAlloc {
		svc := testService(t, func(c *ingest.Config) {
			c.WALDir, c.CheckpointPath, c.QueueDepth = t.TempDir(), "", 64
		})
		svc.Start()
		h := New(Config{}, svc).Handler()
		shard := spreadShard(row.pcs)
		reqs := make([]*http.Request, warm+runs)
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range reqs {
			body, err := ingest.EncodeSubmit(fmt.Sprintf("%s/s%03d", row.shape, i), shard)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		submit := func(i int) {
			h.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusAccepted {
				t.Fatalf("submit %d: %d %s", i, recs[i].Code, recs[i].Body)
			}
			// A merge that fails is booked as loss: wait for either.
			want := uint64(i+1) * shard.Samples()
			deadline := time.Now().Add(10 * time.Second)
			for {
				c := svc.Aggregate().CountersSnapshot()
				if c.Lost > 0 {
					t.Fatalf("submit %d: merged as loss (%d lost)", i, c.Lost)
				}
				if c.Samples >= want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("submit %d: not merged after 10s (%d of %d samples)", i, c.Samples, want)
				}
				runtime.Gosched()
			}
		}
		for i := 0; i < warm; i++ {
			submit(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+runs; i++ {
			submit(i)
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		size := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("per %s submit: %d allocations, %d B", row.shape, allocs, size)
		want := row.want
		if raceEnabled {
			want = row.race
		}
		switch {
		case float64(allocs) > 1.15*float64(want[0]):
			t.Errorf("per %s submit: %d allocations, want <= %d + 15%%", row.shape, allocs, want[0])
		case float64(size) > 1.15*float64(want[1]):
			t.Errorf("per %s submit: %d bytes, want <= %d + 15%%", row.shape, size, want[1])
		}
	}
}
