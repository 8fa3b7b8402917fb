package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"profileme/internal/api"
)

// cannedLeg is one fake instance's answer to every request: a status and
// a body, or (status 0) no answer at all — its listener is closed.
type cannedLeg struct {
	status int
	body   string
}

// wireCase is one fleet query over a fake tier c0..cN-1.
type wireCase struct {
	name, query string
	legs        []cannedLeg
}

const (
	typed400 = `{"error":"parameter \"window\": \"soon\" is not a duration","kind":"param"}`
	typed404 = `{"error":"pc 0x400 has no samples","kind":"unknown-pc"}`
	typed500 = `{"error":"boom","kind":"internal"}`
)

// wireCases are the merge fixtures. testdata/merge_golden.json holds the
// router's answer to each as the commit BEFORE the handlers were split
// into gather → decode → pure merge gave it (status, Retry-After, body);
// TestMergeWireCompat holds today's router to those answers, so the split
// is not allowed to move a key, a status or a sum.
var wireCases = []wireCase{
	{"hotpcs_sketch_floors", "/v1/hotpcs?n=3", []cannedLeg{
		{200, `{"samples":100,"lost":4,"approx":true,"error_bound":3,"pcs":[
			{"pc":"0x400","samples":40,"max_err":1,"est_count":640,"retired_pct":90,"dcache_miss_pct":10,"mispredict_pct":2,"mean_inprogress_cycles":9},
			{"pc":"0x408","samples":30,"max_err":2,"est_count":480,"retired_pct":80,"dcache_miss_pct":0,"mispredict_pct":4,"mean_inprogress_cycles":7}]}`},
		{200, `{"samples":60,"lost":0,"approx":true,"error_bound":5,"pcs":[
			{"pc":"0x408","samples":35,"max_err":5,"est_count":560,"retired_pct":100,"dcache_miss_pct":20,"mispredict_pct":0,"mean_inprogress_cycles":11},
			{"pc":"0x410","samples":20,"max_err":5,"est_count":320,"retired_pct":50,"dcache_miss_pct":5,"mispredict_pct":1,"mean_inprogress_cycles":3}]}`},
		{200, `{"samples":10,"lost":1,"approx":true,"error_bound":0,"pcs":[
			{"pc":"0x400","samples":10,"est_count":160,"retired_pct":100,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":5}]}`},
	}},
	{"hotpcs_truncates_to_n", "/v1/hotpcs?n=1", []cannedLeg{
		{200, `{"samples":9,"approx":true,"error_bound":2,"pcs":[{"pc":"0x8","samples":5,"est_count":80},{"pc":"0x10","samples":4,"est_count":64}]}`},
		{200, `{"samples":9,"approx":true,"error_bound":1,"pcs":[{"pc":"0x10","samples":6,"est_count":96}]}`},
	}},
	{"hotpcs_windowed", "/v1/hotpcs?n=2&window=10s", []cannedLeg{
		{200, `{"samples":100,"lost":0,"approx":true,"error_bound":1,"window_ms":10000,"window_clamped":false,"window_samples":50,"pcs":[
			{"pc":"0x400","samples":30,"max_err":1,"est_count":480,"retired_pct":90}]}`},
		{200, `{"samples":80,"lost":0,"approx":true,"error_bound":2,"window_ms":8000,"window_clamped":true,"window_samples":40,"pcs":[
			{"pc":"0x400","samples":25,"max_err":2,"est_count":400},{"pc":"0x420","samples":15,"max_err":2,"est_count":240}]}`},
	}},
	{"hotpcs_exact", "/v1/hotpcs?n=2&sketch=false", []cannedLeg{
		{200, `{"samples":50,"lost":0,"approx":false,"certified":true,"epoch":7,"pcs":[
			{"pc":"0x400","samples":30,"est_count":480,"retired_pct":100,"dcache_miss_pct":1,"mispredict_pct":2,"mean_inprogress_cycles":3}]}`},
		{200, `{"samples":50,"lost":0,"approx":false,"pcs":[
			{"pc":"0x400","samples":10,"est_count":160,"retired_pct":0,"dcache_miss_pct":5,"mispredict_pct":6,"mean_inprogress_cycles":7},
			{"pc":"0x404","samples":40,"est_count":640,"retired_pct":100,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":1}]}`},
	}},
	{"hotpcs_empty_tier", "/v1/hotpcs", []cannedLeg{{200, `{"samples":0,"lost":0,"approx":true,"pcs":[]}`}}},
	{"hotpcs_lone_400", "/v1/hotpcs?window=soon", []cannedLeg{{400, typed400}, {400, typed400}}},
	{"hotpcs_400_beside_500", "/v1/hotpcs?window=soon", []cannedLeg{{500, typed500}, {400, typed400}}},
	{"hotpcs_400_beside_200", "/v1/hotpcs", []cannedLeg{
		{400, typed400}, {200, `{"samples":7,"approx":true,"pcs":[{"pc":"0x8","samples":7,"est_count":112,"retired_pct":100}]}`}}},
	{"hotpcs_mixed_200_500_dead", "/v1/hotpcs?n=5", []cannedLeg{
		{200, `{"samples":7,"lost":1,"approx":true,"error_bound":4,"pcs":[{"pc":"0x8","samples":7,"max_err":4,"est_count":112,"retired_pct":100}]}`},
		{500, typed500}, {}, {404, typed404}}},
	{"hotpcs_undecodable", "/v1/hotpcs", []cannedLeg{{200, `<html>`}, {200, `{"samples":1,"pcs":[]}`}}},
	{"hotpcs_nobody_answers", "/v1/hotpcs", []cannedLeg{{}, {}}},

	{"estimate_sum", "/v1/estimate?pc=0x400", []cannedLeg{
		{200, `{"pc":"0x400","samples":30,"est_count":480,"approx":true,"max_err":2,
			"est_event_counts":{"retired":470,"dcache_miss":16},"mean_latencies":{"fetch_to_retire":12,"load_complete":4}}`},
		{404, typed404},
		{200, `{"pc":"0x400","samples":10,"est_count":160,"approx":true,"max_err":1,
			"est_event_counts":{"retired":160,"mispredict":32},"mean_latencies":{"fetch_to_retire":20}}`},
	}},
	{"estimate_event", "/v1/estimate?pc=0x400&event=dcache_miss", []cannedLeg{
		{200, `{"pc":"0x400","samples":30,"est_count":480,"approx":false,"event":"dcache_miss","est_event_count":48,"event_rate":0.1,"mean_latencies":{}}`},
		{200, `{"pc":"0x400","samples":10,"est_count":160,"approx":false,"event":"dcache_miss","est_event_count":80,"event_rate":0.5,"mean_latencies":{"fetch_to_retire":9}}`},
	}},
	{"estimate_zero_samples", "/v1/estimate?pc=0x400&event=retired", []cannedLeg{
		{200, `{"pc":"0x400","samples":0,"est_count":0,"approx":true,"event":"retired","mean_latencies":{"fetch_to_retire":9}}`}}},
	{"estimate_all_404", "/v1/estimate?pc=0x400", []cannedLeg{{404, typed404}, {404, typed404}}},
	{"estimate_404_and_dead", "/v1/estimate?pc=0x400", []cannedLeg{{404, typed404}, {}}},
	{"estimate_lone_400", "/v1/estimate?pc=zz", []cannedLeg{{400, typed400}, {404, typed404}}},
	{"estimate_400_beside_200", "/v1/estimate?pc=0x400", []cannedLeg{
		{400, typed400}, {200, `{"pc":"0x400","samples":3,"est_count":48,"approx":true,"mean_latencies":{}}`}}},
	{"estimate_mixed_200_500", "/v1/estimate?pc=0x400", []cannedLeg{
		{500, typed500}, {200, `{"pc":"0x400","samples":3,"est_count":48,"approx":true,"max_err":0,"mean_latencies":{"x":2}}`}, {200, `{`}}},
	{"estimate_nobody_answers", "/v1/estimate?pc=0x400", []cannedLeg{{}}},
	{"estimate_no_pc", "/v1/estimate", []cannedLeg{{200, `{}`}}},

	{"stats_sum", "/v1/stats", []cannedLeg{
		{200, `{"samples":100,"lost":4,"merged":9,"samples_lost":40,"handoffs_in":1,"queue_depth":3}`},
		{200, `{"samples":60,"lost":0,"merged":5,"samples_lost":0,"handoffs_in":0,"extra":{"kept":"verbatim"}}`},
	}},
	{"stats_mixed_200_500_dead", "/v1/stats", []cannedLeg{
		{200, `{"samples":100,"lost":4,"merged":9}`}, {500, typed500}, {}, {200, `nope`}}},
	{"stats_nobody_answers", "/v1/stats", []cannedLeg{{}, {}}},
}

// wireAnswer is what a client sees of one answer.
type wireAnswer struct {
	Status     int    `json:"status"`
	RetryAfter string `json:"retry_after,omitempty"`
	Body       any    `json:"body"`
}

// askFakeTier stands a fresh router over canned instances and asks it once.
func askFakeTier(t *testing.T, c wireCase) wireAnswer {
	t.Helper()
	cfg := RouterConfig{HedgeDelay: -1, QueryDeadline: 2 * time.Second}
	for i, l := range c.legs {
		l := l
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(l.status)
			io.WriteString(w, l.body)
		}))
		if l.status == 0 {
			ts.Close()
		} else {
			t.Cleanup(ts.Close)
		}
		cfg.Instances = append(cfg.Instances, Instance{ID: "c" + string(rune('0'+i)), BaseURL: ts.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + c.query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := wireAnswer{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	if err := json.NewDecoder(resp.Body).Decode(&got.Body); err != nil {
		t.Fatalf("%s: answer is not JSON: %v", c.name, err)
	}
	return got
}

func TestMergeWireCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/merge_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]wireAnswer
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(wireCases) {
		t.Fatalf("%d golden answers for %d cases", len(golden), len(wireCases))
	}
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			got, want := askFakeTier(t, c), golden[c.name]
			if !reflect.DeepEqual(got, want) {
				g, _ := json.MarshalIndent(got, "", "  ")
				w, _ := json.MarshalIndent(want, "", "  ")
				t.Fatalf("%s answered\n%s\nthe parent commit answered\n%s", c.query, g, w)
			}
		})
	}
}

// decodeAll decodes fixture bodies the way a 200 leg's would be.
func decodeAll[T any](t *testing.T, bodies ...string) []T {
	t.Helper()
	out := make([]T, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal([]byte(b), &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// asJSON round-trips a merge's answer through its wire form, so the
// tables below compare what a client would read.
func asJSON(t *testing.T, v any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantJSON(t *testing.T, s string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal([]byte(s), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeHotPCs pins the top-list arithmetic on typed legs alone.
func TestMergeHotPCs(t *testing.T) {
	for _, c := range []struct {
		name     string
		n        int
		windowed bool
		legs     []string
		want     string
	}{
		{"absent legs' floors fold into max_err", 3, false, []string{
			`{"samples":10,"approx":true,"error_bound":3,"pcs":[{"pc":"a","samples":6,"max_err":1,"est_count":96},{"pc":"b","samples":4,"max_err":2,"est_count":64}]}`,
			`{"samples":10,"approx":true,"error_bound":5,"pcs":[{"pc":"b","samples":7,"max_err":5,"est_count":112}]}`,
			`{"samples":2,"approx":true,"error_bound":0,"pcs":[{"pc":"c","samples":2,"est_count":32}]}`,
		}, `{"samples":22,"lost":0,"loss_rate":0,"approx":true,"error_bound":8,"pcs":[
			{"pc":"b","samples":11,"est_count":176,"max_err":7,"retired_pct":0,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":0},
			{"pc":"a","samples":6,"est_count":96,"max_err":6,"retired_pct":0,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":0},
			{"pc":"c","samples":2,"est_count":32,"max_err":8,"retired_pct":0,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":0}]}`},
		{"rates re-weight by samples; ties break by pc; n truncates", 2, false, []string{
			`{"samples":4,"lost":1,"pcs":[{"pc":"b","samples":3,"est_count":48,"retired_pct":100,"dcache_miss_pct":10,"mispredict_pct":0,"mean_inprogress_cycles":4},{"pc":"z","samples":1,"est_count":16}]}`,
			`{"samples":4,"lost":1,"pcs":[{"pc":"a","samples":4,"est_count":64,"retired_pct":50},{"pc":"b","samples":1,"est_count":16,"retired_pct":0,"dcache_miss_pct":50,"mispredict_pct":20,"mean_inprogress_cycles":8}]}`,
		}, `{"samples":8,"lost":2,"loss_rate":0.2,"approx":false,"pcs":[
			{"pc":"a","samples":4,"est_count":64,"retired_pct":50,"dcache_miss_pct":0,"mispredict_pct":0,"mean_inprogress_cycles":0},
			{"pc":"b","samples":4,"est_count":64,"retired_pct":75,"dcache_miss_pct":20,"mispredict_pct":5,"mean_inprogress_cycles":5}]}`},
		{"windowed rows carry no rate fields; window fields aggregate", 5, true, []string{
			`{"samples":9,"approx":true,"error_bound":1,"window_ms":10000,"window_samples":5,"pcs":[{"pc":"a","samples":5,"max_err":1,"est_count":80,"retired_pct":90}]}`,
			`{"samples":9,"approx":true,"error_bound":1,"window_ms":4000,"window_clamped":true,"window_samples":3,"pcs":[{"pc":"a","samples":3,"max_err":1,"est_count":48,"retired_pct":10}]}`,
		}, `{"samples":18,"lost":0,"loss_rate":0,"approx":true,"error_bound":2,"window_ms":10000,"window_clamped":true,"window_samples":8,
			"pcs":[{"pc":"a","samples":8,"est_count":128,"max_err":2}]}`},
		{"no legs", 5, false, nil, `{"samples":0,"lost":0,"loss_rate":0,"approx":false,"pcs":[]}`},
	} {
		got := asJSON(t, mergeHotPCs(decodeAll[api.HotPCs](t, c.legs...), c.n, c.windowed))
		if want := wantJSON(t, c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, want)
		}
	}
}

// TestMergeEstimate pins one PC's rollup arithmetic on typed legs alone.
func TestMergeEstimate(t *testing.T) {
	for _, c := range []struct {
		name string
		legs []string
		want string
	}{
		{"counts sum, latencies re-weight by samples, event maps union", []string{
			`{"samples":30,"est_count":480,"approx":true,"max_err":2,"est_event_counts":{"retired":470,"dcache_miss":16},"mean_latencies":{"fetch_to_retire":12,"load":4}}`,
			`{"samples":10,"est_count":160,"approx":true,"max_err":1,"est_event_counts":{"retired":160},"mean_latencies":{"fetch_to_retire":20}}`,
		}, `{"pc":"0x400","samples":40,"est_count":640,"approx":true,"max_err":3,
			"est_event_counts":{"retired":630,"dcache_miss":16},"mean_latencies":{"fetch_to_retire":14,"load":3}}`},
		{"one event: its count sums and its rate re-weights; exact legs carry no max_err", []string{
			`{"samples":30,"est_count":480,"event":"dcache_miss","est_event_count":48,"event_rate":0.1,"mean_latencies":{}}`,
			`{"samples":10,"est_count":160,"event":"dcache_miss","est_event_count":80,"event_rate":0.5}`,
		}, `{"pc":"0x400","samples":40,"est_count":640,"approx":false,"event":"dcache_miss","est_event_count":128,"event_rate":0.2,"mean_latencies":{}}`},
		{"zero samples divide nothing", []string{
			`{"samples":0,"approx":true,"event":"retired","mean_latencies":{"x":9}}`,
		}, `{"pc":"0x400","samples":0,"est_count":0,"approx":true,"max_err":0,"event":"retired","est_event_count":0,"mean_latencies":{"x":0}}`},
	} {
		got := asJSON(t, mergeEstimate("0x400", decodeAll[api.Estimate](t, c.legs...)))
		if want := wantJSON(t, c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, want)
		}
	}
}

// TestMergeStats: the rollup sums the five conserved counters and carries
// each answering instance's body verbatim.
func TestMergeStats(t *testing.T) {
	bodies := []string{
		`{"samples":100,"lost":4,"merged":9,"samples_lost":40,"handoffs_in":1,"queue_depth":3}`,
		`{"samples":60,"merged":5,"extra":{"kept":"verbatim"}}`,
	}
	from := []leg{{id: "c0", status: 200, body: []byte(bodies[0])}, {id: "c2", status: 200, body: []byte(bodies[1])}}
	got := asJSON(t, mergeStats(from, decodeAll[instanceStats](t, bodies...)))
	want := wantJSON(t, `{"fleet":{"samples":160,"lost":4,"merged":14,"samples_lost":40,"handoffs_in":1,"instances":2},
		"instances":{"c0":`+bodies[0]+`,"c2":`+bodies[1]+`}}`)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

// TestDecodeLegs pins the leg taxonomy every merged query shares: a 400 is
// the request's own fault and is kept for relay, the quiet status is
// neither an answer nor a loss, and anything else unusable is a loss.
func TestDecodeLegs(t *testing.T) {
	ok := func(id string) leg { return leg{id: id, status: 200, body: []byte(`{"samples":1}`)} }
	for _, c := range []struct {
		name        string
		f           fanout
		quiet       int
		wantLegs    int
		wantBad     string
		wantMissing []string
	}{
		{"a lone 400 is kept for relay", fanout{oks: []leg{{id: "c0", status: 400, body: []byte(typed400)}}}, 0, 0, typed400, nil},
		{"a 400 beside a 200 is outvoted, not missing", fanout{oks: []leg{{id: "c0", status: 400, body: []byte(typed400)}, ok("c1")}}, 0, 1, typed400, nil},
		{"all quiet: nothing answered, nothing lost", fanout{oks: []leg{{id: "c0", status: 404}, {id: "c1", status: 404}}}, 404, 0, "", nil},
		{"404 is a loss where it is not quiet", fanout{oks: []leg{{id: "c0", status: 404}, ok("c1")}}, 0, 1, "", []string{"c0"}},
		{"mixed 200/500/undecodable/unanswered", fanout{
			oks:     []leg{ok("c0"), {id: "c1", status: 500, body: []byte(typed500)}, {id: "c3", status: 200, body: []byte(`<html>`)}},
			missing: []string{"c2"}, down: []string{"c4"}}, 404, 1, "", []string{"c2", "c1", "c3"}},
	} {
		d := decodeLegs[instanceStats](c.f, c.quiet)
		if len(d.legs) != c.wantLegs || len(d.from) != c.wantLegs || string(d.bad) != c.wantBad ||
			!reflect.DeepEqual(d.missing, c.wantMissing) || !reflect.DeepEqual(d.down, c.f.down) {
			t.Errorf("%s: %d legs, bad %q, missing %v, down %v; want %d, %q, %v, %v",
				c.name, len(d.legs), d.bad, d.missing, d.down, c.wantLegs, c.wantBad, c.wantMissing, c.f.down)
		}
	}
}
