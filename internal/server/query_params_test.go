package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"profileme/internal/api"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/stats"
)

// TestQueryParamRejection pins the malformed-parameter contract: every
// bad n/window/sketch/pc/event value is a typed 400 with kind "param" —
// never a 500, never a silent default. One table, every query endpoint.
func TestQueryParamRejection(t *testing.T) {
	h := New(Config{}, testService(t, nil)).Handler()

	cases := []struct {
		name string
		path string
	}{
		{"hotpcs n not a number", "/v1/hotpcs?n=abc"},
		{"hotpcs n zero", "/v1/hotpcs?n=0"},
		{"hotpcs n negative", "/v1/hotpcs?n=-3"},
		{"hotpcs n too large", "/v1/hotpcs?n=1001"},
		{"hotpcs n float", "/v1/hotpcs?n=2.5"},
		{"hotpcs n overflow", "/v1/hotpcs?n=99999999999999999999"},
		{"hotpcs window garbage", "/v1/hotpcs?window=soon"},
		{"hotpcs window negative", "/v1/hotpcs?window=-5s"},
		{"hotpcs window zero", "/v1/hotpcs?window=0s"},
		{"hotpcs window bare negative", "/v1/hotpcs?window=-2"},
		{"hotpcs sketch garbage", "/v1/hotpcs?sketch=maybe"},
		{"hotpcs window with exact", "/v1/hotpcs?window=30s&sketch=false"},
		{"estimate pc missing", "/v1/estimate"},
		{"estimate pc garbage", "/v1/estimate?pc=zz"},
		{"estimate pc overflow", "/v1/estimate?pc=0xfffffffffffffffff"},
		{"estimate sketch garbage", "/v1/estimate?pc=0x400&sketch=2.7"},
		{"estimate unknown event", "/v1/estimate?pc=0x400&event=nonsense"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, h, tc.path)
			if status != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400 (body %v)", tc.path, status, body)
			}
			wantKind(t, body, "param")
			if msg, _ := body["error"].(string); msg == "" {
				t.Fatalf("GET %s: empty error message (body %v)", tc.path, body)
			}
		})
	}
}

// TestQueryParamAccepted is the other half of the table: well-formed
// variants of the same parameters are served, so the rejections above
// are precise, not blanket.
func TestQueryParamAccepted(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()
	if status, body := postSubmit(t, h, "bench/s1", testShard(1, 40)); status != http.StatusAccepted {
		t.Fatalf("submit: %d %v", status, body)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{
		"/v1/hotpcs",
		"/v1/hotpcs?n=1",
		"/v1/hotpcs?n=1000",
		"/v1/hotpcs?sketch=true",
		"/v1/hotpcs?sketch=false",
		"/v1/hotpcs?window=30s",
		"/v1/hotpcs?window=45",
		"/v1/hotpcs?window=1m30s&n=3",
	} {
		if status, body := get(t, h, path); status != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200 (body %v)", path, status, body)
		}
	}
}

// TestHotPCsSketchVsExactAgree pins the serving equivalence for small
// aggregates (distinct PCs <= sketch K): the default sketch path and
// ?sketch=false return the same rows in the same order with the same
// estimates, and the sketch path declares itself with "approx": true
// and a zero error bound.
func TestHotPCsSketchVsExactAgree(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()
	if status, body := postSubmit(t, h, "bench/s1", testShard(2, 60)); status != http.StatusAccepted {
		t.Fatalf("submit: %d %v", status, body)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, sk := get(t, h, "/v1/hotpcs?n=8")
	_, ex := get(t, h, "/v1/hotpcs?n=8&sketch=false")

	if sk["approx"] != true || ex["approx"] != false {
		t.Fatalf("approx flags: sketch %v exact %v", sk["approx"], ex["approx"])
	}
	// The sketch holds every PC, so its floor is 0, but the answer cuts
	// the rows below the 8th: its bound is the 9th PC's exact count.
	_, ex9 := get(t, h, "/v1/hotpcs?n=9&sketch=false")
	ninth := ex9["pcs"].([]any)[8].(map[string]any)["samples"]
	if sk["error_bound"] != ninth {
		t.Fatalf("small DB error_bound = %v, want the 9th PC's %v samples", sk["error_bound"], ninth)
	}
	skRows := sk["pcs"].([]any)
	exRows := ex["pcs"].([]any)
	if len(skRows) != len(exRows) || len(skRows) == 0 {
		t.Fatalf("row counts: sketch %d exact %d", len(skRows), len(exRows))
	}
	for i := range skRows {
		s, e := skRows[i].(map[string]any), exRows[i].(map[string]any)
		for _, k := range []string{"pc", "samples", "est_count", "retired_pct", "dcache_miss_pct"} {
			if s[k] != e[k] {
				t.Fatalf("row %d field %q: sketch %v exact %v", i, k, s[k], e[k])
			}
		}
	}

	// The windowed path covers the just-merged shard too (merge time is
	// inside any recent window) and declares its estimates.
	_, win := get(t, h, "/v1/hotpcs?window=30s")
	if win["approx"] != true {
		t.Fatalf("windowed approx = %v", win["approx"])
	}
	if ws, _ := win["window_samples"].(float64); ws != 60 {
		t.Fatalf("window_samples = %v, want 60", win["window_samples"])
	}
}

// zipfShards draws shards over distinct PCs, rank r weighted 1/(r+1),
// and returns them with each PC's exact count over all of them.
func zipfShards(rng *stats.RNG, distinct, shards int) ([]*profile.DB, map[uint64]uint64) {
	cum := make([]float64, distinct)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	truth := make(map[uint64]uint64)
	out := make([]*profile.DB, shards)
	for s := range out {
		out[s] = profile.NewDB(16, 0, 4)
		for i := rng.IntRange(distinct, 20*distinct); i > 0; i-- {
			r := min(sort.SearchFloat64s(cum, rng.Float64()*total), distinct-1)
			pc := 0x400 + 8*uint64(r)
			out[s].Add(core.Sample{First: retiredRecord(pc, int64(i), int64(i+9))})
			truth[pc]++
		}
	}
	return out, truth
}

// hotBoundViolation names the first row of a hot-PC answer outside its
// bounds, or the first PC it does not list whose exact count is above
// its error_bound, or returns "". A row's samples is its exact count
// (a sketch answer: samples <= true <= samples + max_err) or an estimate
// (a windowed one: samples - max_err <= true <= samples).
func hotBoundViolation(reply api.HotPCs, truth map[uint64]uint64, estimates bool) string {
	listed := make(map[uint64]bool, len(reply.PCs))
	for _, row := range reply.PCs {
		pc, err := strconv.ParseUint(row.PC, 0, 64)
		if err != nil {
			return fmt.Sprintf("row pc %q: %v", row.PC, err)
		}
		listed[pc] = true
		var maxErr uint64
		if row.MaxErr != nil {
			maxErr = *row.MaxErr
		}
		lo, hi := row.Samples, row.Samples+maxErr
		if estimates {
			lo, hi = row.Samples-maxErr, row.Samples
		}
		if tc := truth[pc]; tc < lo || tc > hi {
			return fmt.Sprintf("row %s: %d samples, max_err %d, true count %d", row.PC, row.Samples, maxErr, tc)
		}
	}
	if reply.ErrorBound == nil {
		return "no error_bound"
	}
	for pc, tc := range truth {
		if !listed[pc] && tc > *reply.ErrorBound {
			return fmt.Sprintf("unlisted pc %#x was seen %d times, above error_bound %d", pc, tc, *reply.ErrorBound)
		}
	}
	return ""
}

// TestHotPCsBoundCoversUnlisted: an instance's error_bound bounds every
// PC its answer does not list, those it cut to n included, on both the
// sketch and the windowed answer. Random zipf aggregates, K from 8 to 64
// over K/2 to 4K PCs, n in {1, K/2, K, K+1}.
func TestHotPCsBoundCoversUnlisted(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 64)
		shards, truth := zipfShards(rng, rng.IntRange(k/2, 4*k), rng.IntRange(1, 4))
		svc := testService(t, func(c *ingest.Config) { c.SketchTopK = k })
		h := New(Config{}, svc).Handler()
		for i, db := range shards {
			if status, body := postSubmit(t, h, fmt.Sprintf("zipf/s%d", i), db); status != http.StatusAccepted {
				t.Fatalf("seed %d: submit: %d %v", seed, status, body)
			}
		}
		if err := svc.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, k / 2, k, k + 1} {
			for _, q := range []string{"", "&window=60s"} {
				path := fmt.Sprintf("/v1/hotpcs?n=%d%s", n, q)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				var reply api.HotPCs
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("seed %d: %s: %d %v", seed, path, rec.Code, err)
				}
				if v := hotBoundViolation(reply, truth, q != ""); v != "" {
					t.Errorf("seed %d K=%d, %d PCs: %s: %s", seed, k, len(truth), path, v)
				}
			}
		}
	}
}
