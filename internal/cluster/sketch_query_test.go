package cluster

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
)

// TestRouterSketchQueryMerge pins the fleet sketch contract: the router
// scatter-gathers per-instance sketch answers and merges them so that
// (a) exact counters still obey conservation (fleet samples = Σ shard
// samples), (b) the merged answer declares "approx" with a fleet
// error_bound equal to the sum of instance floors, (c) windowed queries
// pass through and aggregate, and (d) malformed parameters come back as
// typed 400s from the router itself.
func TestRouterSketchQueryMerge(t *testing.T) {
	instances, rt := newTier(t, 16, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const shards, per = 12, 40
	for i := 0; i < shards; i++ {
		res := submitVia(t, front.URL, shardName(i), synthShard(uint64(i), per))
		if res.status != 202 {
			t.Fatalf("submit %d: %+v", i, res)
		}
	}
	for _, in := range instances {
		if err := in.svc.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Default (sketch) path: conservation + approx annotation.
	status, body := getJSON(t, front.URL+"/v1/hotpcs?n=10")
	if status != 200 {
		t.Fatalf("hotpcs: %d %v", status, body)
	}
	if got := body["samples"].(float64); got != shards*per {
		t.Fatalf("fleet samples = %v, want %d", got, shards*per)
	}
	if body["approx"] != true {
		t.Fatalf("sketch answer not marked approx: %v", body["approx"])
	}
	// Few distinct PCs (< K) on every instance: floors are 0, so the
	// fleet bound is 0 and the answer is exact despite approx=true.
	if eb := body["error_bound"].(float64); eb != 0 {
		t.Fatalf("error_bound = %v, want 0 for under-capacity sketches", eb)
	}
	rows := body["pcs"].([]any)
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}

	// The exact path must agree row-for-row on this small tier.
	_, exact := getJSON(t, front.URL+"/v1/hotpcs?n=10&sketch=false")
	exRows := exact["pcs"].([]any)
	for i := range rows {
		s, e := rows[i].(map[string]any), exRows[i].(map[string]any)
		if s["pc"] != e["pc"] || s["samples"] != e["samples"] {
			t.Fatalf("row %d: sketch %v vs exact %v", i, s, e)
		}
	}
	if exact["approx"] != false {
		t.Fatalf("exact answer marked approx: %v", exact["approx"])
	}

	// Windowed: all merges happened seconds ago, so a generous window
	// covers every sample; the fleet window_samples is the exact total.
	_, win := getJSON(t, front.URL+"/v1/hotpcs?n=10&window=50s")
	if win["approx"] != true {
		t.Fatalf("windowed answer not approx: %v", win)
	}
	if ws := win["window_samples"].(float64); ws != shards*per {
		t.Fatalf("window_samples = %v, want %d", ws, shards*per)
	}

	// Estimate passthrough: the hottest PC answers with approx and sums.
	hottest := rows[0].(map[string]any)["pc"].(string)
	_, est := getJSON(t, front.URL+"/v1/estimate?pc="+hottest)
	if est["approx"] != true {
		t.Fatalf("estimate not served from sketch view: %v", est)
	}
	wantSamples := rows[0].(map[string]any)["samples"].(float64)
	if est["samples"].(float64) != wantSamples {
		t.Fatalf("estimate samples %v != hotpcs row %v", est["samples"], wantSamples)
	}

	// Router-side parameter taxonomy: malformed values are typed 400s.
	for _, q := range []string{"/v1/hotpcs?n=abc", "/v1/hotpcs?n=0", "/v1/hotpcs?window=soon"} {
		status, body := getJSON(t, front.URL+q)
		if status != 400 {
			t.Fatalf("GET %s = %d, want 400 (%v)", q, status, body)
		}
		if body["kind"] != "param" {
			t.Fatalf("GET %s kind = %v, want param", q, body["kind"])
		}
	}
}

// TestRouterExactQueryOverCertifiedLegs: ?sketch=false passes through to
// instances that now answer it from their published views ("certified":
// true plus an epoch the router does not know about), and the fleet
// answer is unchanged by that — approx:false, no error_bound, no
// max_err, and rows that are exactly the per-PC sums of the legs' rows
// in (samples desc, pc asc) order.
func TestRouterExactQueryOverCertifiedLegs(t *testing.T) {
	instances, rt := newTier(t, 16, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 12; i++ {
		if res := submitVia(t, front.URL, shardName(i), synthShard(uint64(i), 40)); res.status != 202 {
			t.Fatalf("submit %d: %+v", i, res)
		}
	}
	type sum struct{ samples, est float64 }
	want := make(map[string]*sum)
	for _, in := range instances {
		if err := in.svc.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The router over-fetches 4n from every leg.
		status, leg := getJSON(t, in.ts.URL+"/v1/hotpcs?n=40&sketch=false")
		if status != 200 || leg["approx"] != false {
			t.Fatalf("%s leg: %d %v", in.id, status, leg)
		}
		if in.svc.Aggregate().CountersSnapshot().Samples > 0 && leg["certified"] != true {
			t.Fatalf("%s: under-capacity sketch did not certify its exact answer: %v", in.id, leg)
		}
		for _, r := range leg["pcs"].([]any) {
			row := r.(map[string]any)
			pc := row["pc"].(string)
			if want[pc] == nil {
				want[pc] = &sum{}
			}
			want[pc].samples += row["samples"].(float64)
			want[pc].est += row["est_count"].(float64)
		}
	}
	order := make([]string, 0, len(want))
	for pc := range want {
		order = append(order, pc)
	}
	sort.Slice(order, func(i, j int) bool {
		if a, b := want[order[i]].samples, want[order[j]].samples; a != b {
			return a > b
		}
		return order[i] < order[j]
	})

	status, body := getJSON(t, front.URL+"/v1/hotpcs?n=10&sketch=false")
	if status != 200 || body["approx"] != false {
		t.Fatalf("fleet exact answer: %d approx=%v", status, body["approx"])
	}
	if _, has := body["error_bound"]; has {
		t.Fatalf("exact fleet answer carries an error_bound: %v", body)
	}
	rows := body["pcs"].([]any)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		row, pc := r.(map[string]any), order[i]
		if row["pc"] != pc || row["samples"] != want[pc].samples || row["est_count"] != want[pc].est {
			t.Fatalf("row %d = %v, want %s with %+v", i, row, pc, *want[pc])
		}
		if _, has := row["max_err"]; has {
			t.Fatalf("exact row %d carries max_err: %v", i, row)
		}
	}
}
