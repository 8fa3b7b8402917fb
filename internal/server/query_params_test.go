package server

import (
	"context"
	"net/http"
	"testing"
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
	if eb, _ := sk["error_bound"].(float64); eb != 0 {
		t.Fatalf("small DB error_bound = %v, want 0", sk["error_bound"])
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
