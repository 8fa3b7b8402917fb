package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/server"
)

// tierInstance is one in-process collector: a real ingest service behind
// the real HTTP layer, the exact stack cmd/pmsimd runs.
type tierInstance struct {
	id  string
	svc *ingest.Service
	ts  *httptest.Server
}

func newTierInstance(t *testing.T, id string, queueDepth int) *tierInstance {
	t.Helper()
	svc, err := ingest.NewService(ingest.Config{
		QueueDepth: queueDepth,
		Interval:   16,
		Width:      4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	return serveInstance(t, id, svc)
}

// serveInstance puts the real HTTP layer in front of svc until the test ends.
func serveInstance(t *testing.T, id string, svc *ingest.Service) *tierInstance {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{Instance: id}, svc).Handler())
	t.Cleanup(ts.Close)
	return &tierInstance{id: id, svc: svc, ts: ts}
}

// routerOver builds the tests' usual router — down after two failures, no
// hedging — over instances, of which it reads the id and the URL.
func routerOver(t *testing.T, instances ...*tierInstance) *Router {
	t.Helper()
	cfg := RouterConfig{FailureThreshold: 2, HedgeDelay: -1}
	for _, in := range instances {
		cfg.Instances = append(cfg.Instances, Instance{ID: in.id, BaseURL: in.ts.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func newTier(t *testing.T, queueDepth int, ids ...string) ([]*tierInstance, *Router) {
	t.Helper()
	instances := make([]*tierInstance, len(ids))
	for i, id := range ids {
		instances[i] = newTierInstance(t, id, queueDepth)
	}
	return instances, routerOver(t, instances...)
}

// synthShard builds a deterministic tier-compatible shard (interval 16,
// width 4) with samples over a small skewed PC population.
func synthShard(seed uint64, samples int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < samples; i++ {
		// Quadratic skew: low PCs dominate, so hot-PC rankings are stable.
		slot := (seed + uint64(i)*7) % 64
		pc := 0x400 + 8*(slot*slot%64)
		r := core.Record{PC: pc, LoadComplete: -1}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		r.Events = core.EvRetired
		db.Add(core.Sample{First: r})
	}
	return db
}

// submitResp is the router's augmented submission response.
type submitResp struct {
	status    int
	Shard     string   `json:"shard"`
	Duplicate bool     `json:"duplicate"`
	Instance  string   `json:"instance"`
	RefusedBy []string `json:"refused_by"`
}

func submitVia(t *testing.T, url, shard string, db *profile.DB) submitResp {
	t.Helper()
	out, err := trySubmit(url, shard, db)
	if err != nil {
		t.Fatalf("submit %s: %v", shard, err)
	}
	return out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: undecodable response: %v", url, err)
	}
	return resp.StatusCode, m
}

// TestRouterPlacementDedupConservation: shards route to their ring
// owner, a retry after a lost 202 dedupes at the SAME instance, and the
// tier total equals the sum of distinct shards' captured samples.
func TestRouterPlacementDedupConservation(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const nShards = 12
	var wantCaptured uint64
	placed := make(map[string]string, nShards)
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("synth/s%03d", i)
		db := synthShard(uint64(i)+1, 50+i)
		wantCaptured += db.Samples() + db.Lost()
		got := submitVia(t, front.URL, shard, db)
		if got.status != http.StatusAccepted {
			t.Fatalf("shard %s: status %d", shard, got.status)
		}
		if got.Duplicate {
			t.Fatalf("shard %s: fresh submission marked duplicate", shard)
		}
		if got.Instance == "" {
			t.Fatal("202 without routing provenance")
		}
		placed[shard] = got.Instance

		// The client's retry after a lost 202: same shard again must hit
		// the same admission ledger and dedupe.
		again := submitVia(t, front.URL, shard, db)
		if again.status != http.StatusAccepted || !again.Duplicate {
			t.Fatalf("shard %s retry: status %d duplicate %v, want 202 duplicate",
				shard, again.status, again.Duplicate)
		}
		if again.Instance != got.Instance {
			t.Fatalf("shard %s retry routed to %s, originally %s — ledger split across instances",
				shard, again.Instance, got.Instance)
		}
	}

	// Placement matches the ring the router derives its own decisions
	// from AND is spread (with 12 shards on 3 instances, each should see
	// at least one).
	byInstance := map[string]int{}
	for _, id := range placed {
		byInstance[id]++
	}
	if len(byInstance) != 3 {
		t.Fatalf("12 shards landed on %d instances: %v", len(byInstance), byInstance)
	}

	// Let every queue flush, then check tier conservation through the
	// router's own stats rollup.
	waitForMerge(t, instances, nShards)
	status, stats := getJSON(t, front.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	fleet := stats["fleet"].(map[string]any)
	if got := uint64(fleet["samples"].(float64) + fleet["lost"].(float64)); got != wantCaptured {
		t.Fatalf("fleet samples+lost %d, distinct shards captured %d", got, wantCaptured)
	}
	if stats["partial"].(bool) {
		t.Fatal("healthy tier served a partial stats rollup")
	}
}

func waitForMerge(t *testing.T, instances []*tierInstance, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, in := range instances {
			total += int(in.svc.Stats().Merged)
		}
		if total >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d shards merged before deadline", total, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterFailoverOnDraining: a draining owner 503-refuses (recording
// the shard's captured samples as loss there); the router fails over
// along the ring, the shard merges at the successor, and the response
// names both — the refusal loss plus the merged samples is exactly how
// the fleet-wide invariant counts a failover.
func TestRouterFailoverOnDraining(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	byID := map[string]*tierInstance{}
	for _, in := range instances {
		byID[in.id] = in
	}

	// Find a shard owned by c1 (the instance we will drain).
	ring := NewRing(0, 0)
	for _, in := range instances {
		ring.Add(in.id)
	}
	shard := ""
	for i := 0; ; i++ {
		s := fmt.Sprintf("fail/s%03d", i)
		if owner, _ := ring.Owner(s); owner == "c1" {
			shard = s
			break
		}
	}
	byID["c1"].svc.BeginDrain()

	db := synthShard(99, 80)
	captured := db.Samples() + db.Lost()
	got := submitVia(t, front.URL, shard, db)
	if got.status != http.StatusAccepted {
		t.Fatalf("failover submission: status %d", got.status)
	}
	if got.Instance == "c1" {
		t.Fatal("shard merged at the draining owner")
	}
	if len(got.RefusedBy) != 1 || got.RefusedBy[0] != "c1" {
		t.Fatalf("refused_by %v, want [c1]", got.RefusedBy)
	}

	// The refusal was loss-accounted at c1, the merge landed at the
	// survivor: the (c1, shard) and (survivor, shard) pairs BOTH count.
	if lost := byID["c1"].svc.Stats().SamplesLost; lost != captured {
		t.Fatalf("drainer's loss ledger %d, want the shard's %d captured samples", lost, captured)
	}
	waitForMerge(t, instances, 1)
	if got := byID[got.Instance].svc.Stats().Samples; got != captured {
		t.Fatalf("survivor aggregate %d samples, want %d", got, captured)
	}

	// The router now knows c1 is draining; an unpinned NEW shard owned by
	// c1 skips it entirely (no second refusal recorded).
	shard2 := ""
	for i := 1000; ; i++ {
		s := fmt.Sprintf("fail/s%03d", i)
		if owner, _ := ring.Owner(s); owner == "c1" {
			shard2 = s
			break
		}
	}
	before := byID["c1"].svc.Stats().OverloadRejected
	got2 := submitVia(t, front.URL, shard2, synthShard(100, 40))
	if got2.status != http.StatusAccepted || got2.Instance == "c1" {
		t.Fatalf("post-drain submission: status %d instance %s", got2.status, got2.Instance)
	}
	if len(got2.RefusedBy) != 0 {
		t.Fatalf("known-draining instance was asked again: refused_by %v", got2.RefusedBy)
	}
	if after := byID["c1"].svc.Stats().OverloadRejected; after != before {
		t.Fatal("router still sent new submissions to a known-draining instance")
	}
}

// TestRouterPartialDegradationAndRecovery: queries against a tier with a
// dead instance degrade to explicit partials ("partial": true +
// instances-missing) instead of failing, and a revived instance rejoins
// after a probe.
func TestRouterPartialDegradationAndRecovery(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	rt.cfg.QueryDeadline = 500 * time.Millisecond
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 6; i++ {
		got := submitVia(t, front.URL, fmt.Sprintf("part/s%03d", i), synthShard(uint64(i)+1, 30))
		if got.status != http.StatusAccepted {
			t.Fatalf("seed shard %d: %d", i, got.status)
		}
	}
	waitForMerge(t, instances, 6)

	status, resp := getJSON(t, front.URL+"/v1/hotpcs?n=10")
	if status != http.StatusOK || resp["partial"].(bool) {
		t.Fatalf("healthy tier: status %d partial %v", status, resp["partial"])
	}

	// SIGKILL c2 (its listener dies mid-tier). The very next queries must
	// still answer 200 — with the degradation made explicit.
	killed := instances[2]
	killedSamples := killed.svc.Stats().Samples
	killed.ts.Close()

	status, resp = getJSON(t, front.URL+"/v1/hotpcs?n=10")
	if status != http.StatusOK {
		t.Fatalf("hotpcs with a dead instance: status %d, want 200 partial", status)
	}
	if !resp["partial"].(bool) {
		t.Fatal("dead instance but partial=false")
	}
	if n := int(resp["instances_missing"].(float64)); n != 1 {
		t.Fatalf("instances_missing %d, want 1", n)
	}

	// Stats rollup mirrors it, and the fleet sum excludes the dead
	// instance's samples (they are gone — that is the point of making
	// partial explicit rather than guessing).
	_, stats := getJSON(t, front.URL+"/v1/stats")
	if !stats["partial"].(bool) {
		t.Fatal("stats rollup not marked partial")
	}
	live := instances[0].svc.Stats().Samples + instances[1].svc.Stats().Samples
	fleet := stats["fleet"].(map[string]any)
	if got := uint64(fleet["samples"].(float64)); got != live {
		t.Fatalf("fleet rollup %d samples, live instances hold %d (dead held %d)", got, live, killedSamples)
	}

	// The router is still ready (degraded beats dead) and reports who is
	// down after a probe.
	rt.Probe(context.Background())
	rt.Probe(context.Background()) // threshold 2
	status, ready := getJSON(t, front.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz: %d", status)
	}
	if st := ready["instances"].(map[string]any)["c2"]; st != "down" {
		t.Fatalf("c2 state %v after probes, want down", st)
	}

	// Recovery: a replacement process for c2 comes up at a NEW address;
	// re-registering the id keeps its ring position and the next probe
	// revives it.
	replacement := newTierInstance(t, "c2", 64)
	rt.SetInstance("c2", replacement.ts.URL)
	rt.Probe(context.Background())
	status, resp = getJSON(t, front.URL+"/v1/hotpcs?n=10")
	if status != http.StatusOK || resp["partial"].(bool) {
		t.Fatalf("after recovery: status %d partial %v, want 200 full", status, resp["partial"])
	}
}

// TestRouterHedgedStraggler: a straggling instance is hedged — the
// duplicate request races it and the scatter-gather completes without
// waiting the full deadline or losing the leg.
func TestRouterHedgedStraggler(t *testing.T) {
	// One real instance plus one deliberately-straggling front: the first
	// request to it stalls (well past the hedge delay), the hedged
	// duplicate answers immediately.
	slow := newTierInstance(t, "c0", 64)
	var mu sync.Mutex
	stalled := false
	straggler := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !stalled
		stalled = true
		mu.Unlock()
		if first {
			time.Sleep(2 * time.Second)
		}
		// Proxy to the real instance so the payload is well-formed.
		resp, err := http.Get(slow.ts.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer straggler.Close()

	rt, err := NewRouter(RouterConfig{
		Instances:     []Instance{{ID: "c0", BaseURL: straggler.URL}},
		QueryDeadline: 5 * time.Second,
		HedgeDelay:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	start := time.Now()
	status, resp := getJSON(t, front.URL+"/v1/hotpcs?n=5")
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged query: status %d", status)
	}
	if resp["partial"].(bool) {
		t.Fatal("hedged query degraded to partial")
	}
	if elapsed > time.Second {
		t.Fatalf("hedge did not race the straggler: query took %v", elapsed)
	}
	st := rt.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters %+v, want a fired and won hedge", st)
	}
}

// TestRoundTripCutBody: an answer whose body is cut short still reports
// its status. Callers that act on the status alone (witness send, confirm,
// adopt, prune, handoff send, the /readyz probe) must not mistake a 2xx
// with a torn body for an unreachable peer; callers that need the body
// (query legs, export, submit relay) see the read error.
func TestRoundTripCutBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"status":`))
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()

	status, raw, err := roundTrip(context.Background(), nil, http.MethodGet, srv.URL, nil, 0, 4096)
	if status != http.StatusOK || err == nil || string(raw) != `{"status":` {
		t.Fatalf("cut body: status %d raw %q err %v, want 200, the bytes sent and a read error", status, raw, err)
	}
	rt := &Router{client: srv.Client()}
	if err := rt.confirmHandoff(context.Background(), srv.URL); err != nil {
		t.Fatalf("confirm classifies by status, yet a cut 200 failed it: %v", err)
	}
	if _, err := rt.get(context.Background(), srv.URL, 4096); err == nil {
		t.Fatal("get returned a cut body as if it were whole")
	}
	srv.Close()
	if status, _, err := roundTrip(context.Background(), nil, http.MethodGet, srv.URL, nil, 0, 4096); status != 0 || err == nil {
		t.Fatalf("no answer: status %d err %v, want 0 and an error", status, err)
	}
}

// TestRouterBodyRefusals: the router reads a submission through the
// same bounded reader as an instance — one byte over MaxBodyBytes is 413
// "oversized", a body that cannot be read is 400 "body" — and a refused
// body never reaches an instance.
func TestRouterBodyRefusals(t *testing.T) {
	var reached sync.Map
	inst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Store(r.URL.Path, true)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer inst.Close()
	rt, err := NewRouter(RouterConfig{Instances: []Instance{{ID: "c0", BaseURL: inst.URL}}, MaxBodyBytes: 1024, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   io.Reader
		status int
		kind   string
	}{
		{"one byte over the bound", strings.NewReader(`{"shard":"x","profile":"` + strings.Repeat("A", 1024-25) + `"}`), http.StatusRequestEntityTooLarge, "oversized"},
		{"a body cut short", io.MultiReader(strings.NewReader(`{"shard":"x",`), iotest.ErrReader(errors.New("connection reset"))), http.StatusBadRequest, "body"},
	} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", c.body))
		var refusal struct{ Kind string }
		if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil || rec.Code != c.status || refusal.Kind != c.kind {
			t.Errorf("%s: %d %s, want %d %q", c.name, rec.Code, rec.Body.Bytes(), c.status, c.kind)
		}
	}
	reached.Range(func(path, _ any) bool {
		t.Errorf("a refused body reached the instance at %s", path)
		return true
	})
}

// TestRoundTripOverLimit: an answer one byte longer than the limit is an
// error beside its status, never a clipped body passed off as whole.
func TestRoundTripOverLimit(t *testing.T) {
	const limit = 4096
	for _, n := range []int{limit, limit + 1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(bytes.Repeat([]byte("x"), n))
		}))
		status, raw, err := roundTrip(context.Background(), nil, http.MethodGet, srv.URL, nil, 0, limit)
		srv.Close()
		if n == limit && (status != http.StatusOK || err != nil || len(raw) != limit) {
			t.Errorf("a %d-byte answer at limit %d: status %d, %d bytes, err %v; want 200, whole, no error", n, limit, status, len(raw), err)
		}
		if n > limit && (status != http.StatusOK || err == nil || len(raw) > limit) {
			t.Errorf("a %d-byte answer at limit %d: status %d, %d bytes, err %v; want 200 and an error", n, limit, status, len(raw), err)
		}
	}
}
