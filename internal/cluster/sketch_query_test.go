package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
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

// TestRouterSketchQueryMerge pins the fleet sketch contract: the router
// scatter-gathers per-instance sketch answers and merges them so that
// (a) exact counters still obey conservation (fleet samples = Σ shard
// samples), (b) the merged answer declares "approx" with a fleet
// error_bound that bounds every PC it does not list, (c) windowed queries
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
	// Few distinct PCs (< K) on every instance: floors are 0, and every
	// leg lists all it tracks, so the rows are exact despite approx=true
	// and the fleet bound is the first cut row's count, the 11th PC's.
	_, ex11 := getJSON(t, front.URL+"/v1/hotpcs?n=11&sketch=false")
	eleventh := ex11["pcs"].([]any)[10].(map[string]any)["samples"]
	if body["error_bound"] != eleventh {
		t.Fatalf("error_bound = %v, want the 11th PC's %v samples for under-capacity sketches", body["error_bound"], eleventh)
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

// TestRouterHotPCsBoundCoversUnlisted: through a 3-instance router,
// every merged row, sketch or exact (sketch=false), satisfies samples <=
// true <= samples + max_err and every PC the fleet answer does not list
// is within its error_bound, those cut from the merged top n and those a
// leg cut from its own included. An exact answer with no bound is the
// exact top n. Random zipf aggregates spread over the three instances as
// whole shards, K from 8 to 64 over K/2 to 4K PCs, n in {1, K/2, K,
// K+1}.
func TestRouterHotPCsBoundCoversUnlisted(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		k := rng.IntRange(8, 64)
		distinct := rng.IntRange(k/2, 4*k)
		instances := make([]*tierInstance, 3)
		for i := range instances {
			svc, err := ingest.NewService(ingest.Config{QueueDepth: 64, Interval: 16, Width: 4, SketchTopK: k}, nil)
			if err != nil {
				t.Fatal(err)
			}
			svc.Start()
			instances[i] = serveInstance(t, fmt.Sprintf("c%d", i), svc)
		}
		front := httptest.NewServer(routerOver(t, instances...).Handler())
		truth := make(map[uint64]uint64)
		for s := 0; s < 9; s++ {
			// Each shard ranks the PCs from its own offset, so a PC one
			// leg cuts may be another leg's hottest.
			db, offset := profile.NewDB(16, 0, 4), uint64(rng.Intn(distinct))
			for i, rank := range zipfPCs(rng, distinct, rng.IntRange(distinct, 10*distinct)) {
				pc := 0x400 + 8*((rank+offset)%uint64(distinct))
				r := core.Record{PC: pc, LoadComplete: -1, Events: core.EvRetired}
				for j := range r.StageCycle {
					r.StageCycle[j] = -1
				}
				r.StageCycle[core.StageFetch], r.StageCycle[core.StageRetire] = int64(i), int64(i+9)
				db.Add(core.Sample{First: r})
				truth[pc]++
			}
			if res := submitVia(t, front.URL, fmt.Sprintf("zipf/s%d", s), db); res.status != http.StatusAccepted {
				t.Fatalf("seed %d: submit %d: %+v", seed, s, res)
			}
		}
		for _, in := range instances {
			if err := in.svc.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{"", "&sketch=false"} {
			for _, n := range []int{1, k / 2, k, k + 1} {
				resp, err := http.Get(fmt.Sprintf("%s/v1/hotpcs?n=%d%s", front.URL, n, q))
				if err != nil {
					t.Fatal(err)
				}
				var reply api.HotPCs
				err = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || q == "" && reply.ErrorBound == nil {
					t.Fatalf("seed %d n=%d%s: %d %v %+v", seed, n, q, resp.StatusCode, err, reply)
				}
				// Without a bound, nothing unlisted was seen more often
				// than the last listed row.
				bound := uint64(math.MaxUint64)
				if reply.ErrorBound != nil {
					bound = *reply.ErrorBound
				} else if len(reply.PCs) > 0 {
					bound = reply.PCs[len(reply.PCs)-1].Samples
				}
				if reply.ErrorBound == nil && (reply.Approx || len(reply.PCs) != min(n, len(truth))) {
					t.Errorf("seed %d K=%d n=%d%s: unbounded answer with approx %v and %d of %d PCs", seed, k, n, q, reply.Approx, len(reply.PCs), len(truth))
				}
				listed := make(map[uint64]bool, len(reply.PCs))
				for _, row := range reply.PCs {
					pc, _ := strconv.ParseUint(row.PC, 0, 64)
					listed[pc] = true
					hi := row.Samples + value(row.MaxErr)
					if tc := truth[pc]; tc < row.Samples || tc > hi {
						t.Errorf("seed %d K=%d n=%d%s: row %s has %d samples, max_err %d, true count %d", seed, k, n, q, row.PC, row.Samples, value(row.MaxErr), tc)
					}
				}
				for pc, tc := range truth {
					if !listed[pc] && tc > bound {
						t.Errorf("seed %d K=%d n=%d%s: unlisted pc %#x was seen %d times, above bound %d (error_bound %v)", seed, k, n, q, pc, tc, bound, reply.ErrorBound != nil)
					}
				}
			}
		}
		front.Close()
	}
}

// zipfPCs draws count ranks below distinct, rank r weighted 1/(r+1).
func zipfPCs(rng *stats.RNG, distinct, count int) []uint64 {
	cum := make([]float64, distinct)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = uint64(min(sort.SearchFloat64s(cum, rng.Float64()*total), distinct-1))
	}
	return out
}
