package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/api"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// exactReply is the slice of a ?sketch=false answer these tests read.
// Certified and Epoch are pointers because the scan fallback omits them.
type exactReply struct {
	Samples   uint64          `json:"samples"`
	Lost      uint64          `json:"lost"`
	LossRate  float64         `json:"loss_rate"`
	PCs       json.RawMessage `json:"pcs"`
	Approx    *bool           `json:"approx"`
	Certified *bool           `json:"certified"`
	Epoch     *uint64         `json:"epoch"`
}

func getExact(t *testing.T, h http.Handler, n int) exactReply {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/hotpcs?n=%d&sketch=false", n), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("hotpcs n=%d sketch=false: %d %s", n, rec.Code, rec.Body.String())
	}
	var out exactReply
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Approx == nil || *out.Approx {
		t.Fatalf("sketch=false answer must carry approx:false: %s", rec.Body.String())
	}
	return out
}

// scanRowsJSON renders the rows exactly as the handler did before it
// could answer from the view: the read-locked scan, and one read-locked
// EstimatedCount per row.
func scanRowsJSON(t *testing.T, agg *profile.SafeDB, n int) []byte {
	t.Helper()
	accs, _ := agg.HotPCsExact(n)
	rows := make([]api.HotPC, 0, len(accs))
	for i := range accs {
		rows = append(rows, accRow(&accs[i], agg.EstimatedCount(accs[i].PC), 0))
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// retiredRecord is one valid retired sample record for pc.
func retiredRecord(pc uint64, fetch, retire int64) core.Record {
	r := core.Record{PC: pc, LoadComplete: -1, Events: core.EvRetired}
	for j := range r.StageCycle {
		r.StageCycle[j] = -1
	}
	r.StageCycle[core.StageFetch], r.StageCycle[core.StageRetire] = fetch, retire
	return r
}

// skewShard spreads samples over `spread` PCs with a steep head (PC i
// gets about samples/2^(i+1)), some of them cache misses, and reports
// loss so the estimates carry a loss correction.
func skewShard(seed uint64, spread, samples int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < samples; i++ {
		slot := 0
		for x := uint64(i)*2654435761 + seed; x&1 == 1 && slot < spread-1; x >>= 1 {
			slot++
		}
		if i%5 == 0 { // a cold tail that overflows a small sketch
			slot = (i + int(seed)) % spread
		}
		r := retiredRecord(0x400+8*uint64(slot), int64(i), int64(i+9+slot))
		if i%4 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	db.RecordLoss(seed%3 + 1)
	return db
}

// waitMerged blocks until the aggregator has resolved n submissions.
func waitMerged(t *testing.T, svc *ingest.Service, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Merged < n {
		if time.Now().After(deadline) {
			t.Fatalf("merged %d of %d after 10s", svc.Stats().Merged, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHotPCsExactServedFromViewEqualsScan pins ?sketch=false on both of
// its paths against an overflowed sketch (96 PCs through K=16): after
// every acknowledged merge the reply's rows are byte-for-byte what the
// read-locked scan produces from the live database — certified from the
// view for a small n, by the scan itself for n above the sketch capacity
// — and the certified reply says so, with the epoch its rows were built
// at. Readers poll both published-state shapes throughout (run with
// -race): every reply must be sorted, and a certified one never older
// than the previous.
func TestHotPCsExactServedFromViewEqualsScan(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) { c.SketchTopK = 16; c.QueueDepth = 64 })
	svc.Start()
	t.Cleanup(func() {
		if err := svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := New(Config{}, svc).Handler()
	agg := svc.Aggregate()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch float64
			for !stop.Load() {
				for _, path := range []string{"/v1/hotpcs?n=5&sketch=false", "/v1/hotpcs?n=5&window=30s"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					var body struct {
						PCs []struct {
							PC      string `json:"pc"`
							Samples uint64 `json:"samples"`
						} `json:"pcs"`
						Certified bool    `json:"certified"`
						Epoch     float64 `json:"epoch"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
						t.Errorf("GET %s: %d %v", path, rec.Code, err)
						return
					}
					for i := 1; i < len(body.PCs); i++ {
						if body.PCs[i].Samples > body.PCs[i-1].Samples {
							t.Errorf("GET %s: rows out of order: %+v", path, body.PCs)
							return
						}
					}
					if body.Certified {
						if body.Epoch < lastEpoch {
							t.Errorf("certified epoch went backwards: %v after %v", body.Epoch, lastEpoch)
							return
						}
						lastEpoch = body.Epoch
					}
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()

	for i := 0; i < 12; i++ {
		status, body := postSubmit(t, h, fmt.Sprintf("skew/s%03d", i), skewShard(uint64(i), 96, 400))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, status, body)
		}
		waitMerged(t, svc, uint64(i+1))
		v := agg.View()
		if v.Floor == 0 {
			t.Fatal("setup: the sketch must overflow for certification to mean anything")
		}

		cert := getExact(t, h, 5)
		if cert.Certified == nil || !*cert.Certified || cert.Epoch == nil || *cert.Epoch != v.RowsEpoch {
			t.Fatalf("merge %d: skewed top 5 not certified at rows epoch %d: %+v", i, v.RowsEpoch, cert)
		}
		if want := scanRowsJSON(t, agg, 5); !bytes.Equal(cert.PCs, want) {
			t.Fatalf("merge %d: certified rows differ from the scan\nview %s\nscan %s", i, cert.PCs, want)
		}
		if c := agg.CountersSnapshot(); cert.Samples != c.Samples || cert.Lost != c.Lost || cert.LossRate != c.LossRate {
			t.Fatalf("merge %d: certified totals %+v differ from the aggregate", i, cert)
		}

		scan := getExact(t, h, 40) // above K: the view cannot certify
		if scan.Certified != nil || scan.Epoch != nil {
			t.Fatalf("merge %d: n=40 over K=16 claims certification: %+v", i, scan)
		}
		if want := scanRowsJSON(t, agg, 40); !bytes.Equal(scan.PCs, want) {
			t.Fatalf("merge %d: fallback rows differ from the scan", i)
		}
	}
}

// TestHotPCsExactFallsBackOnFlatProfile: when every PC sits at the
// sketch floor the view must refuse even a top-1, and the reply comes
// from the scan — uncertified, and still exactly the scan's rows.
func TestHotPCsExactFallsBackOnFlatProfile(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) { c.SketchTopK = 8 })
	h := New(Config{}, svc).Handler()
	flat := profile.NewDB(16, 0, 4)
	for i := 0; i < 3*40; i++ {
		flat.Add(core.Sample{First: retiredRecord(0x400+8*uint64(i%40), 0, 7)})
	}
	if status, body := postSubmit(t, h, "flat/s0", flat); status != http.StatusAccepted {
		t.Fatalf("submit: %d %v", status, body)
	}
	if err := svc.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 8} {
		got := getExact(t, h, n)
		if got.Certified != nil {
			t.Fatalf("n=%d: flat profile certified: %+v", n, got)
		}
		if want := scanRowsJSON(t, svc.Aggregate(), n); !bytes.Equal(got.PCs, want) {
			t.Fatalf("n=%d: fallback rows differ from the scan\ngot  %s\nscan %s", n, got.PCs, want)
		}
	}
}

// TestHotPCsExactCountersAreOneSnapshot: a ?sketch=false reply's samples,
// lost and loss_rate come from one published snapshot, so loss_rate is
// lost/(samples+lost) exactly however merges interleave with the query —
// on the scan fallback too (a flat profile, so even n=1 cannot certify),
// which used to load the three one after another. Run with -race.
func TestHotPCsExactCountersAreOneSnapshot(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) { c.SketchTopK = 8; c.QueueDepth = 512 })
	svc.Start()
	t.Cleanup(func() {
		if err := svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := New(Config{}, svc).Handler()

	var stop atomic.Bool
	var replies, scans atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/hotpcs?n=1&sketch=false", nil))
				var r exactReply
				if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != http.StatusOK {
					t.Errorf("GET: %d %v", rec.Code, err)
					return
				}
				want := 0.0
				if r.Lost > 0 {
					want = float64(r.Lost) / float64(r.Samples+r.Lost)
				}
				if r.LossRate != want {
					t.Errorf("torn reply: samples %d, lost %d, loss_rate %v, want %v", r.Samples, r.Lost, r.LossRate, want)
					return
				}
				replies.Add(1)
				if r.Certified == nil {
					scans.Add(1)
				}
			}
		}()
	}

	const shards = 400
	for i := 0; i < shards; i++ {
		db := profile.NewDB(16, 0, 4)
		for j := 0; j < 40; j++ { // flat: every PC stays at the sketch floor
			db.Add(core.Sample{First: retiredRecord(0x400+8*uint64(j), 0, 7)})
		}
		db.RecordLoss(uint64(i*7) % 11)
		if status, body := postSubmit(t, h, fmt.Sprintf("flat/s%03d", i), db); status != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, status, body)
		}
	}
	waitMerged(t, svc, shards)
	stop.Store(true)
	wg.Wait()
	if replies.Load() == 0 || scans.Load() == 0 {
		t.Fatalf("vacuous: %d replies, %d from the scan", replies.Load(), scans.Load())
	}
}
