package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// queryAnswer is what a client sees of one query answer.
type queryAnswer struct {
	Status     int    `json:"status"`
	RetryAfter string `json:"retry_after,omitempty"`
	Body       any    `json:"body"`
}

// queryWireCases are the instance's query fixtures: on "skew" (one
// steep-headed shard with loss through a 16-row sketch, so rows carry
// max_err and a small exact top certifies), on "flat" (every PC at the
// floor of an 8-row sketch, so ?sketch=false falls back to the scan) and
// on "bare" (one PC whose samples carry no event bit).
// testdata/query_golden.json holds each answer as the commit before the
// reply bodies were declared as types gave it (status, Retry-After,
// body); TestQueryWireCompat holds today's handlers to those answers.
var queryWireCases = []struct{ name, inst, path string }{
	{"hotpcs_sketch", "skew", "/v1/hotpcs?n=16"},
	{"hotpcs_window", "skew", "/v1/hotpcs?n=6&window=30s"},
	{"hotpcs_certified", "skew", "/v1/hotpcs?n=3&sketch=false"},
	{"hotpcs_scan", "flat", "/v1/hotpcs?n=4&sketch=false"},
	{"estimate_sketch", "skew", "/v1/estimate?pc=0x400"},
	{"estimate_exact", "skew", "/v1/estimate?pc=0x400&sketch=false"},
	{"estimate_event", "skew", "/v1/estimate?pc=0x408&event=dcache-miss"},
	{"estimate_unknown_event", "skew", "/v1/estimate?pc=0x400&event=nonsense"},
	{"estimate_cold", "skew", "/v1/estimate?pc=0x6f8"},
	{"estimate_unknown_pc", "skew", "/v1/estimate?pc=0x99999"},
	{"param_n_garbage", "skew", "/v1/hotpcs?n=abc"},
	{"param_n_range", "skew", "/v1/hotpcs?n=1001"},
	{"param_window_garbage", "skew", "/v1/hotpcs?window=soon"},
	{"param_window_negative", "skew", "/v1/hotpcs?window=-5s"},
	{"param_sketch_garbage", "skew", "/v1/hotpcs?sketch=maybe"},
	{"param_window_with_exact", "skew", "/v1/hotpcs?window=30s&sketch=false"},
	{"param_pc_missing", "skew", "/v1/estimate"},
	{"param_pc_garbage", "skew", "/v1/estimate?pc=zz"},
	{"param_estimate_sketch_garbage", "skew", "/v1/estimate?pc=0x400&sketch=2.7"},
	{"estimate_no_events", "bare", "/v1/estimate?pc=0x800"},
}

// wireShard is skewShard's placement (a steep head over 96 PCs and a
// cold tail) with every field a reply reads set somewhere: all six
// stage timestamps, so each latency kind and the in-progress mean are
// non-zero, three event kinds at different rates, and some aborts.
func wireShard() *profile.DB {
	db := profile.NewDB(16, 0, 4)
	const spread = 96
	for i := 0; i < 3000; i++ {
		slot := 0
		for x := uint64(i)*2654435761 + 1; x&1 == 1 && slot < spread-1; x >>= 1 {
			slot++
		}
		if i%5 == 0 {
			slot = (i + 1) % spread
		}
		r := core.Record{PC: 0x400 + 8*uint64(slot), LoadComplete: -1, Events: core.EvRetired}
		for j := range r.StageCycle {
			r.StageCycle[j] = int64(i + j*(1+i%3+slot%4))
		}
		if i%9 == 0 {
			r.Events = core.EvOffPath
		}
		if i%4 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		if i%7 == 0 {
			r.Events |= core.EvMispredict | core.EvTaken
		}
		db.Add(core.Sample{First: r})
	}
	db.RecordLoss(7)
	return db
}

// wireInstances stands up the two fixture instances, each with its one
// shard merged and published.
func wireInstances(t *testing.T) map[string]http.Handler {
	t.Helper()
	flat := profile.NewDB(16, 0, 4)
	for i := 0; i < 3*40; i++ {
		flat.Add(core.Sample{First: retiredRecord(0x400+8*uint64(i%40), 0, 7)})
	}
	bare := profile.NewDB(16, 0, 4)
	for i := 0; i < 5; i++ {
		r := retiredRecord(0x800, int64(i), int64(i+6))
		r.Events = 0
		bare.Add(core.Sample{First: r})
	}
	shards := map[string]struct {
		topK int
		db   *profile.DB
	}{
		"skew": {16, wireShard()},
		"flat": {8, flat},
		"bare": {8, bare},
	}
	out := make(map[string]http.Handler)
	for name, sh := range shards {
		svc := testService(t, func(c *ingest.Config) { c.SketchTopK = sh.topK })
		h := New(Config{}, svc).Handler()
		if status, body := postSubmit(t, h, name+"/s0", sh.db); status != http.StatusAccepted {
			t.Fatalf("%s submit: %d %v", name, status, body)
		}
		if err := svc.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		out[name] = h
	}
	return out
}

func TestQueryWireCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/query_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]queryAnswer
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(queryWireCases) {
		t.Fatalf("%d golden answers for %d cases", len(golden), len(queryWireCases))
	}
	insts := wireInstances(t)
	for _, c := range queryWireCases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			insts[c.inst].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
			got := queryAnswer{Status: rec.Code, RetryAfter: rec.Header().Get("Retry-After")}
			if err := json.Unmarshal(rec.Body.Bytes(), &got.Body); err != nil {
				t.Fatalf("%s: answer is not JSON: %v", c.path, err)
			}
			if want := golden[c.name]; !reflect.DeepEqual(got, want) {
				g, _ := json.MarshalIndent(got, "", "  ")
				w, _ := json.MarshalIndent(want, "", "  ")
				t.Fatalf("%s answered\n%s\nthe golden answer is\n%s", c.path, g, w)
			}
		})
	}
}
