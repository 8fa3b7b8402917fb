package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"profileme/internal/ingest"
)

// controlTier is the control-wire fixture: real instances behind a real
// router, every URL known, so answers can name peers by id.
type controlTier struct {
	t    *testing.T
	urls map[string]string // id -> base URL, every server the fixture starts
	got  map[string]wireAnswer
}

// instance starts a collector whose aggregator never runs on its own, so
// a queue depth in an answer counts exactly what the fixture queued.
func (ct *controlTier) instance(id string, queueDepth int) *tierInstance {
	svc, err := ingest.NewService(ingest.Config{QueueDepth: queueDepth, Interval: 16, Width: 4}, nil)
	if err != nil {
		ct.t.Fatal(err)
	}
	in := serveInstance(ct.t, id, svc)
	ct.urls[id] = in.ts.URL
	return in
}

// ask makes one exchange and records what the asker sees of it under
// name: the status, Retry-After and the decoded body, with every
// fixture URL spelled as http://<id>.
func (ct *controlTier) ask(name, method, url string, body []byte, header ...string) wireAnswer {
	ct.t.Helper()
	if _, dup := ct.got[name]; dup {
		ct.t.Fatalf("exchange %s recorded twice", name)
	}
	req, err := http.NewRequest(method, url, strings.NewReader(string(body)))
	if err != nil {
		ct.t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ct.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		ct.t.Fatalf("%s: %v", name, err)
	}
	ids := make([]string, 0, len(ct.urls))
	for id := range ct.urls {
		ids = append(ids, id)
	}
	// Longest URL first: no port is then a prefix of one still to come.
	sort.Slice(ids, func(i, j int) bool { return len(ct.urls[ids[i]]) > len(ct.urls[ids[j]]) })
	text := string(raw)
	for _, id := range ids {
		text = strings.ReplaceAll(text, ct.urls[id], "http://"+id)
	}
	a := wireAnswer{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	if err := json.Unmarshal([]byte(text), &a.Body); err != nil {
		ct.t.Fatalf("%s: answer is not JSON: %v\n%s", name, err, raw)
	}
	ct.got[name] = a
	return a
}

func (ct *controlTier) submission(shard string, seed uint64, samples int) []byte {
	body, err := ingest.EncodeSubmit(shard, synthShard(seed, samples))
	if err != nil {
		ct.t.Fatal(err)
	}
	return body
}

func (ct *controlTier) router(cfg RouterConfig) (*Router, *httptest.Server) {
	rt, err := NewRouter(cfg)
	if err != nil {
		ct.t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	ct.t.Cleanup(front.Close)
	return rt, front
}

// controlExchanges drives every router↔instance exchange, and the
// router's own submit, membership and health answers, through one
// scripted history and returns each answer by name.
func controlExchanges(t *testing.T) map[string]wireAnswer {
	ct := &controlTier{t: t, urls: make(map[string]string), got: make(map[string]wireAnswer)}

	// One instance on its own: a queue of one, so the second fresh shard
	// is a 429 that stands in the ledger as a refusal.
	solo := ct.instance("solo", 1)
	ct.ask("instance_submit_fresh", http.MethodPost, solo.ts.URL+"/v1/submit", ct.submission("solo/s0", 1, 40))
	ct.ask("instance_submit_duplicate", http.MethodPost, solo.ts.URL+"/v1/submit", ct.submission("solo/s0", 1, 40))
	ct.ask("instance_submit_queue_full", http.MethodPost, solo.ts.URL+"/v1/submit", ct.submission("solo/s1", 2, 30))
	ct.ask("instance_submit_malformed", http.MethodPost, solo.ts.URL+"/v1/submit", []byte(`{"shard":"solo/s2","profile":"not base64!"}`))
	ct.ask("instance_readyz", http.MethodGet, solo.ts.URL+"/readyz", nil)
	ct.ask("instance_healthz", http.MethodGet, solo.ts.URL+"/healthz", nil)
	ct.ask("adopt", http.MethodPost, solo.ts.URL+"/v1/ledger/adopt", []byte(`{"from":"c9","shards":["x/s1","x/s2","solo/s0"]}`))
	ct.ask("adopt_malformed", http.MethodPost, solo.ts.URL+"/v1/ledger/adopt", []byte(`{"from":"c9","shards":[]}`))
	ct.ask("confirm_before_export", http.MethodPost, solo.ts.URL+"/v1/handoff/confirm", nil)
	// The router relays an instance's refusal with the provenance added.
	_, soloFront := ct.router(RouterConfig{HedgeDelay: -1, Instances: []Instance{{ID: "solo", BaseURL: solo.ts.URL}}})
	ct.ask("router_submit_queue_full", http.MethodPost, soloFront.URL+"/v1/submit", ct.submission("solo/s3", 14, 25))
	ct.ask("router_submit_malformed", http.MethodPost, soloFront.URL+"/v1/submit", []byte(`{"shard":"solo/s2","profile":"not base64!"}`))

	// A donor hands its aggregate to solo by hand: export, deliver twice,
	// confirm.
	donor := ct.instance("d0", 8)
	ct.ask("donor_submit", http.MethodPost, donor.ts.URL+"/v1/submit", ct.submission("d0/s0", 3, 50))
	resp, err := http.Post(donor.ts.URL+"/v1/handoff/export", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %v", resp.StatusCode, err)
	}
	ct.ask("handoff_fresh", http.MethodPost, solo.ts.URL+"/v1/handoff", envelope)
	ct.ask("handoff_duplicate", http.MethodPost, solo.ts.URL+"/v1/handoff", envelope)
	ct.ask("handoff_confirm", http.MethodPost, donor.ts.URL+"/v1/handoff/confirm", nil)
	ct.ask("ledger", http.MethodGet, solo.ts.URL+"/v1/ledger", nil)

	// A three-instance tier with witness replication behind a router.
	tier := map[string]*tierInstance{}
	cfg := RouterConfig{FailureThreshold: 2, HedgeDelay: -1, Witness: true, WitnessSync: true}
	for _, id := range []string{"c0", "c1", "c2"} {
		tier[id] = ct.instance(id, 8)
		cfg.Instances = append(cfg.Instances, Instance{ID: id, BaseURL: tier[id].ts.URL})
	}
	rt, front := ct.router(cfg)
	ct.urls["router"] = front.URL
	fresh := ct.ask("router_submit_fresh", http.MethodPost, front.URL+"/v1/submit", ct.submission("cw/s0", 4, 40))
	ct.ask("router_submit_duplicate", http.MethodPost, front.URL+"/v1/submit", ct.submission("cw/s0", 4, 40))
	for i, shard := range []string{"cw/s1", "cw/s2", "cw/s3", "cw/s4", "cw/s5"} {
		body := ct.submission(shard, uint64(5+i), 30+i)
		if resp, err := http.Post(front.URL+"/v1/submit", "application/json", strings.NewReader(string(body))); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %v %v", shard, resp, err)
		} else {
			resp.Body.Close()
		}
	}
	// Drain the ring owner of the next shard: the router fails over and
	// says who refused.
	const failShard = "cw/s6"
	owner, _, _, _ := rt.members.resolve(failShard)
	tier[owner.id].svc.BeginDrain()
	ct.ask("router_submit_failover", http.MethodPost, front.URL+"/v1/submit", ct.submission(failShard, 11, 35))
	ct.ask("instance_readyz_draining", http.MethodGet, tier[owner.id].ts.URL+"/readyz", nil)
	ct.ask("router_submit_wrong_owner", http.MethodPost, front.URL+"/v1/submit", ct.submission("cw/s7", 12, 20), "X-Ring-Epoch", "7")
	ct.ask("router_resolve_pinned", http.MethodGet, front.URL+"/v1/resolve?shard="+failShard, nil)
	ct.ask("router_resolve_unpinned", http.MethodGet, front.URL+"/v1/resolve?shard=cw/never", nil)
	ct.ask("router_readyz", http.MethodGet, front.URL+"/readyz", nil)
	ct.ask("router_healthz", http.MethodGet, front.URL+"/healthz", nil)
	ct.ask("router_membership", http.MethodGet, front.URL+"/v1/membership", nil)

	// The witness copies of the router's acks, on every member.
	for _, id := range []string{"c0", "c1", "c2"} {
		ct.ask("witness_ledger_"+id, http.MethodGet, tier[id].ts.URL+"/v1/witness/ledger", nil)
	}
	origin := fresh.Body.(map[string]any)["instance"].(string)
	holder, ok := rt.members.witness("cw/s0", origin)
	if !ok {
		t.Fatal("no witness holder for cw/s0")
	}
	ct.ask("witness_fetch", http.MethodGet, holder.url+"/v1/witness/fetch?origin="+origin+"&shard=cw/s0", nil)
	ct.ask("witness_fetch_missing", http.MethodGet, holder.url+"/v1/witness/fetch?origin="+origin+"&shard=cw/none", nil)
	ct.ask("witness_fetch_param", http.MethodGet, holder.url+"/v1/witness/fetch?shard=cw/s0", nil)
	ct.ask("witness_prune", http.MethodPost, holder.url+"/v1/witness/prune", []byte(`{"origin":"`+origin+`","shards":["cw/s0","cw/none"]}`))
	ct.ask("witness_prune_malformed", http.MethodPost, holder.url+"/v1/witness/prune", []byte(`{"shards":["cw/s0"]}`))

	// Grow the tier by one, then remove the drained instance.
	tier["c3"] = ct.instance("c3", 8)
	ct.ask("membership_add", http.MethodPost, front.URL+"/v1/membership/add", []byte(`{"id":"c3","url":"`+tier["c3"].ts.URL+`"}`))
	ct.ask("membership_remove", http.MethodPost, front.URL+"/v1/membership/remove", []byte(`{"id":"`+owner.id+`"}`))
	ct.ask("router_membership_after", http.MethodGet, front.URL+"/v1/membership", nil)
	ct.ask("router_submit_after", http.MethodPost, front.URL+"/v1/submit", ct.submission("cw/s0", 4, 40))

	// A tier with nobody to take a shard: one draining instance and one
	// that never answers, then the dead one alone.
	drained := ct.instance("e0", 8)
	drained.svc.BeginDrain()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	ct.urls["e1"] = dead.URL
	_, both := ct.router(RouterConfig{HedgeDelay: -1, Instances: []Instance{{ID: "e0", BaseURL: drained.ts.URL}, {ID: "e1", BaseURL: dead.URL}}})
	ct.ask("router_submit_no_instances", http.MethodPost, both.URL+"/v1/submit", ct.submission("cw/s8", 13, 20))
	_, alone := ct.router(RouterConfig{HedgeDelay: -1, Instances: []Instance{{ID: "e1", BaseURL: dead.URL}}})
	ct.ask("router_submit_no_instances_dead", http.MethodPost, alone.URL+"/v1/submit", ct.submission("cw/s8", 13, 20))
	return ct.got
}

// TestControlWireCompat holds every router↔instance body — the submit
// ack and the router's reply built from it, the handoff and confirm
// acks, the adopt request and ack, the ledger, the witness ledger, fetch
// and prune — and the daemons' health, membership and resolve answers
// to testdata/control_golden.json, written by the commit before those
// bodies were declared as types. Edit it by hand for an intended key
// change; never regenerate it from new code.
func TestControlWireCompat(t *testing.T) {
	got := controlExchanges(t)
	raw, err := os.ReadFile("testdata/control_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]wireAnswer
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for name := range golden {
		if _, ok := got[name]; !ok {
			t.Errorf("golden exchange %s was not made", name)
		}
	}
	for name, a := range got {
		want, ok := golden[name]
		if !ok {
			t.Errorf("exchange %s has no golden answer", name)
			continue
		}
		if !reflect.DeepEqual(a, want) {
			g, _ := json.MarshalIndent(a, "", "  ")
			w, _ := json.MarshalIndent(want, "", "  ")
			t.Errorf("%s answered\n%s\nthe golden answer is\n%s", name, g, w)
		}
	}
}
