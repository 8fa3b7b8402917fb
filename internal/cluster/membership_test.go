package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/api"
	"profileme/internal/ingest"
)

// membershipEpoch reads the ring epoch off the membership endpoint.
func membershipEpoch(t *testing.T, frontURL string) uint64 {
	t.Helper()
	status, m := getJSON(t, frontURL+"/v1/membership")
	if status != http.StatusOK {
		t.Fatalf("membership: %d", status)
	}
	return uint64(m["epoch"].(float64))
}

// fleetCaptured reads Σ samples+lost off the router's stats rollup.
func fleetCaptured(t *testing.T, frontURL string) uint64 {
	t.Helper()
	status, m := getJSON(t, frontURL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	fleet := m["fleet"].(map[string]any)
	return uint64(fleet["samples"].(float64) + fleet["lost"].(float64))
}

// postJSON posts a JSON body and decodes the JSON answer.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: undecodable response: %v", url, err)
	}
	return resp.StatusCode, m
}

// TestMembershipAddLive grows a live 3-instance tier to 4 while its data
// stays queryable, then proves the adoption sweep (not just the router's
// in-memory pins) carries the dedupe obligation: a FRESH router — no
// pins — over the grown tier must still answer 202+duplicate for every
// previously acknowledged shard.
func TestMembershipAddLive(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const nShards = 24
	var wantCaptured uint64
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("grow/s%03d", i)
		db := synthShard(uint64(i)+1, 40+i)
		wantCaptured += db.Samples() + db.Lost()
		if got := submitVia(t, front.URL, shard, db); got.status != http.StatusAccepted || got.Duplicate {
			t.Fatalf("shard %s: status %d duplicate %v", shard, got.status, got.Duplicate)
		}
	}
	waitForMerge(t, instances, nShards)
	epoch0 := membershipEpoch(t, front.URL)

	// Scale out through the HTTP surface — no instance restarts.
	newcomer := newTierInstance(t, "c3", 64)
	status, rep := postJSON(t, front.URL+"/v1/membership/add",
		fmt.Sprintf(`{"id":"c3","url":%q}`, newcomer.ts.URL))
	if status != http.StatusOK {
		t.Fatalf("membership add: %d %v", status, rep)
	}
	if got := uint64(rep["epoch"].(float64)); got != epoch0+1 {
		t.Fatalf("post-add epoch %d, want %d", got, epoch0+1)
	}
	if moved := int(rep["shards_moved"].(float64)); moved == 0 {
		t.Fatal("no shard ownership moved on a 3->4 scale-out of 24 shards")
	}
	if adopted := int(rep["adopted"].(float64)); adopted == 0 {
		t.Fatal("scale-out adopted nothing at the newcomer")
	}
	if membershipEpoch(t, front.URL) != epoch0+1 {
		t.Fatal("membership endpoint does not reflect the committed epoch")
	}

	// Retries through the SAME router dedupe (pins + adoption).
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("grow/s%03d", i)
		got := submitVia(t, front.URL, shard, synthShard(uint64(i)+1, 40+i))
		if got.status != http.StatusAccepted || !got.Duplicate {
			t.Fatalf("shard %s retry after add: status %d duplicate %v, want 202 duplicate",
				shard, got.status, got.Duplicate)
		}
	}

	// The adoption proof: a restarted router loses every pin. Retries now
	// follow pure ring order — moved shards land on the newcomer, whose
	// adopted ledger must dedupe them.
	front2 := httptest.NewServer(routerOver(t, append(instances, newcomer)...).Handler())
	defer front2.Close()
	landedOnNewcomer := 0
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("grow/s%03d", i)
		got := submitVia(t, front2.URL, shard, synthShard(uint64(i)+1, 40+i))
		if got.status != http.StatusAccepted || !got.Duplicate {
			t.Fatalf("shard %s retry via pinless router: status %d duplicate %v — double-merge",
				shard, got.status, got.Duplicate)
		}
		if got.Instance == "c3" {
			landedOnNewcomer++
		}
	}
	if landedOnNewcomer == 0 {
		t.Fatal("pinless retries never routed to the newcomer; the adoption path went untested")
	}

	// Adoption moves obligations, not samples: conservation is unchanged.
	if got := fleetCaptured(t, front.URL); got != wantCaptured {
		t.Fatalf("fleet captured %d after scale-out, want %d", got, wantCaptured)
	}
}

// TestMembershipRemoveLive shrinks a live, WAL- and checkpoint-backed
// tier: the donor's whole aggregate and ledger migrate before the ring
// forgets it, retries of its shards dedupe at the receiver, and the
// conservation sum survives the move exactly — and survives the removed
// process's exit and restart, which find its books retired.
func TestMembershipRemoveLive(t *testing.T) {
	dir := t.TempDir()
	cfgOf := func(id string) ingest.Config {
		return ingest.Config{QueueDepth: 64, Interval: 16, Width: 4, CheckpointEvery: 2,
			CheckpointPath: filepath.Join(dir, id, "agg.db"), WALDir: filepath.Join(dir, id, "wal")}
	}
	instances := make([]*tierInstance, 3)
	for i, id := range []string{"c0", "c1", "c2"} {
		svc, _, err := ingest.Recover(cfgOf(id))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.CloseWAL()
		svc.Start()
		instances[i] = serveInstance(t, id, svc)
	}
	front := httptest.NewServer(routerOver(t, instances...).Handler())
	defer front.Close()

	const nShards = 30
	var wantCaptured uint64
	donorShards := map[string]bool{}
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("shrink/s%03d", i)
		db := synthShard(uint64(i)+7, 30+i)
		wantCaptured += db.Samples() + db.Lost()
		got := submitVia(t, front.URL, shard, db)
		if got.status != http.StatusAccepted {
			t.Fatalf("shard %s: status %d", shard, got.status)
		}
		if got.Instance == "c1" {
			donorShards[shard] = true
		}
	}
	waitForMerge(t, instances, nShards)
	if len(donorShards) == 0 {
		t.Fatal("donor c1 holds no shards; the migration would be vacuous")
	}
	if _, err := os.Stat(cfgOf("c1").CheckpointPath); err != nil {
		t.Fatalf("donor c1 wrote no checkpoint (%v); its restart would be vacuous", err)
	}
	epoch0 := membershipEpoch(t, front.URL)

	status, rep := postJSON(t, front.URL+"/v1/membership/remove", `{"id":"c1"}`)
	if status != http.StatusOK {
		t.Fatalf("membership remove: %d %v", status, rep)
	}
	if got := uint64(rep["epoch"].(float64)); got != epoch0+1 {
		t.Fatalf("post-remove epoch %d, want %d", got, epoch0+1)
	}
	receiver, _ := rep["receiver"].(string)
	if receiver == "" || receiver == "c1" {
		t.Fatalf("remove report names receiver %q", receiver)
	}
	if got := uint64(rep["captured_moved"].(float64)); got == 0 {
		t.Fatal("remove migrated zero captured samples from a donor that held shards")
	}
	donor := instances[1]
	if !donor.svc.Stats().HandedOff {
		t.Fatal("donor not marked handed off after confirmed removal")
	}
	// The receiver took c1's books over in one handoff, and its ledger
	// names c1 as the source of every shard that came with them.
	for _, in := range instances {
		if in.id != receiver {
			continue
		}
		from, handoffs := in.svc.Ledger().AdoptedFrom, in.svc.Stats().HandoffsIn
		for shard := range donorShards {
			if from[shard] != "c1" || handoffs != 1 {
				t.Fatalf("shard %s provenance %q after %d handoffs at receiver %s, want c1 after 1", shard, from[shard], handoffs, receiver)
			}
		}
	}

	// Membership no longer lists the donor.
	_, mem := getJSON(t, front.URL+"/v1/membership")
	members := mem["instances"].(map[string]any)
	if _, ok := members["c1"]; ok || len(members) != 2 {
		t.Fatalf("membership after remove: %v", members)
	}

	// Every shard — donor-held or not — still dedupes on retry, and the
	// donor's shards answer from a live instance.
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("shrink/s%03d", i)
		got := submitVia(t, front.URL, shard, synthShard(uint64(i)+7, 30+i))
		if got.status != http.StatusAccepted || !got.Duplicate {
			t.Fatalf("shard %s retry after remove: status %d duplicate %v — the donor's ledger was lost",
				shard, got.status, got.Duplicate)
		}
		if got.Instance == "c1" {
			t.Fatalf("shard %s answered by the removed instance", shard)
		}
	}

	// The donor's books moved wholesale: the fleet rollup (which no
	// longer reaches c1) must still balance EXACTLY.
	if got := fleetCaptured(t, front.URL); got != wantCaptured {
		t.Fatalf("fleet captured %d after scale-in, want %d (migration lost or double-counted samples)", got, wantCaptured)
	}

	// And the tier keeps accepting new work. Its merge is asynchronous;
	// wait for it, or the total read below could miss it and the final
	// comparison would blame the donor's exit for the difference.
	fresh := synthShard(99, 20)
	if got := submitVia(t, front.URL, "shrink/after", fresh); got.status != http.StatusAccepted || got.Duplicate {
		t.Fatalf("fresh submit after scale-in: status %d duplicate %v", got.status, got.Duplicate)
	}
	wantCaptured += fresh.Samples() + fresh.Lost()
	for deadline := time.Now().Add(10 * time.Second); fleetCaptured(t, front.URL) != wantCaptured; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fresh shard not merged: fleet captured %d, want %d", fleetCaptured(t, front.URL), wantCaptured)
		}
	}

	// Pinless-router proof for scale-in: handoff ledger + adoption cover
	// dedupe without the original router's memory.
	front2 := httptest.NewServer(routerOver(t, instances[0], instances[2]).Handler())
	defer front2.Close()
	for i := 0; i < nShards; i++ {
		shard := fmt.Sprintf("shrink/s%03d", i)
		got := submitVia(t, front2.URL, shard, synthShard(uint64(i)+7, 30+i))
		if got.status != http.StatusAccepted || !got.Duplicate {
			t.Fatalf("shard %s retry via pinless router after remove: status %d duplicate %v",
				shard, got.status, got.Duplicate)
		}
	}

	// The operator SIGTERMs the removed instance — the daemon's shutdown
	// tail — and someone restarts it with the same flags. Confirm retired
	// the WAL directory AND the checkpoint file, so the exit writes nothing
	// back and the restart finds nothing: the samples live at the receiver.
	wantCaptured = fleetCaptured(t, front.URL)
	donor.svc.BeginDrain()
	donor.ts.Close()
	if err := donor.svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := donor.svc.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(filepath.Join(dir, "c1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if !strings.HasSuffix(e.Name(), ".handedoff") {
			t.Errorf("retired donor left %s behind, want only *.handedoff", e.Name())
		}
	}
	again, info, err := ingest.Recover(cfgOf("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseWAL()
	if st := again.Stats(); info.CheckpointLoaded || info.Replayed != 0 || st.Samples != 0 || st.Lost != 0 {
		t.Fatalf("restarted donor recovered checkpoint=%v, %d WAL records, %d samples, %d lost — all of which live at the receiver",
			info.CheckpointLoaded, info.Replayed, st.Samples, st.Lost)
	}
	if got := fleetCaptured(t, front.URL); got != wantCaptured {
		t.Fatalf("fleet captured %d after the donor's exit, want %d", got, wantCaptured)
	}
}

// TestRemovalRetryKeepsItsReceiver: a removal whose envelope was delivered
// and which then failed redelivers, on retry, to the receiver that holds
// it — not to a better-placed candidate that was down the first time,
// where it would merge the donor's samples a second time.
func TestRemovalRetryKeepsItsReceiver(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for i := 0; i < 30; i++ {
		if got := submitVia(t, front.URL, fmt.Sprintf("redo/s%03d", i), synthShard(uint64(i)+1, 40)); got.status != http.StatusAccepted {
			t.Fatalf("shard %d: status %d", i, got.status)
		}
	}
	waitForMerge(t, instances, 30)
	want := fleetCaptured(t, front.URL)

	// c0 is the first candidate for c1's envelope and the new owner of some
	// of its shards. With c0 dead, c2 receives and the adoption at c0 fails.
	instances[0].ts.Close()
	if rep, err := rt.removeInstance(context.Background(), "c1"); err == nil || rt.members.deliveredTo("c1") != "c2" {
		t.Fatalf("removal with c0 dead: report %+v err %v delivered to %q, want a failure after delivery to c2", rep, err, rt.members.deliveredTo("c1"))
	}
	rt.SetInstance("c0", serveInstance(t, "c0", instances[0].svc).ts.URL)
	if rep, err := rt.removeInstance(context.Background(), "c1"); err != nil || rep.Receiver != "c2" {
		t.Fatalf("reissued removal: report %+v err %v, want success at receiver c2", rep, err)
	}
	if got := fleetCaptured(t, front.URL); got != want {
		t.Fatalf("fleet captured %d after the retried removal, want %d: the envelope merged twice", got, want)
	}
}

// TestRemovalLostAckStaysWithReceiver: the first candidate applies the
// donor's envelope and the connection drops before its 202 arrives. The
// removal must not offer the envelope to the next candidate, which would
// merge the donor's samples a second time; it fails, and its retry
// redelivers to the same receiver, whose content-key dedupe answers 202
// duplicate. The fleet total never moves.
func TestRemovalLostAckStaysWithReceiver(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1", "c2")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for i := 0; i < 30; i++ {
		if got := submitVia(t, front.URL, fmt.Sprintf("lost/s%03d", i), synthShard(uint64(i)+1, 40)); got.status != http.StatusAccepted {
			t.Fatalf("shard %d: status %d", i, got.status)
		}
	}
	waitForMerge(t, instances, 30)
	want := fleetCaptured(t, front.URL)

	// c0, the first candidate for c1's envelope, sits behind a proxy that
	// hands the first handoff to c0 and then drops the connection.
	target, err := url.Parse(instances[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var dropped atomic.Bool
	lossy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/handoff" && dropped.CompareAndSwap(false, true) {
			proxy.ServeHTTP(httptest.NewRecorder(), r)
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer lossy.Close()
	rt.SetInstance("c0", lossy.URL)

	var rep *api.MigrationReport
	for attempt := 1; rep == nil; attempt++ {
		if rep, err = rt.removeInstance(context.Background(), "c1"); err != nil && attempt == 3 {
			t.Fatalf("removal still failing after %d attempts: %v", attempt, err)
		}
	}
	if !dropped.Load() {
		t.Fatal("the proxy never dropped a handoff ack")
	}
	if got := fleetCaptured(t, front.URL); got != want {
		t.Fatalf("fleet captured %d -> %d after a removal whose first ack was lost (receiver %s): the envelope merged twice",
			want, got, rep.Receiver)
	}
	if rep.Receiver != "c0" {
		t.Fatalf("removal landed at %s, want c0, the receiver that applied the envelope", rep.Receiver)
	}
}

// TestWrongOwnerEpoch: a client that cached a /v1/resolve answer sends
// its epoch with the submit; after a membership change that epoch is
// stale and the router answers the typed wrong-owner 409 carrying the
// current epoch, which un-sticks the client.
func TestWrongOwnerEpoch(t *testing.T) {
	_, rt := newTier(t, 16, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if got := submitVia(t, front.URL, "epoch/s1", synthShard(1, 10)); got.status != http.StatusAccepted {
		t.Fatalf("seed submit: %d", got.status)
	}
	status, res := getJSON(t, front.URL+"/v1/resolve?shard=epoch/s1")
	if status != http.StatusOK {
		t.Fatalf("resolve: %d", status)
	}
	epoch := uint64(res["epoch"].(float64))
	if res["instance"].(string) == "" || res["url"].(string) == "" {
		t.Fatalf("resolve answer incomplete: %v", res)
	}
	if pinned, _ := res["pinned"].(bool); !pinned {
		t.Fatal("resolve of an acknowledged shard did not prefer the pinned placement")
	}

	submitWithEpoch := func(epochHdr string) (int, map[string]any) {
		body, err := ingest.EncodeSubmit("epoch/s1", synthShard(1, 10))
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/submit", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Ring-Epoch", epochHdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	if st, m := submitWithEpoch(strconv.FormatUint(epoch, 10)); st != http.StatusAccepted {
		t.Fatalf("submit with current epoch: %d %v", st, m)
	}

	// Membership change bumps the epoch; the cached one now draws a 409.
	newcomer := newTierInstance(t, "c2", 16)
	if st, rep := postJSON(t, front.URL+"/v1/membership/add",
		fmt.Sprintf(`{"id":"c2","url":%q}`, newcomer.ts.URL)); st != http.StatusOK {
		t.Fatalf("add: %d %v", st, rep)
	}
	st, m := submitWithEpoch(strconv.FormatUint(epoch, 10))
	if st != http.StatusConflict {
		t.Fatalf("stale-epoch submit: status %d, want 409", st)
	}
	if m["kind"] != "wrong-owner" {
		t.Fatalf("409 kind %v, want wrong-owner", m["kind"])
	}
	cur := uint64(m["epoch"].(float64))
	if cur != epoch+1 {
		t.Fatalf("409 carries epoch %d, want current %d", cur, epoch+1)
	}
	if rt.Stats().WrongOwnerConflicts == 0 {
		t.Fatal("wrong-owner conflict not counted")
	}
	// Re-resolving with the carried epoch un-sticks the client.
	if st, _ := submitWithEpoch(strconv.FormatUint(cur, 10)); st != http.StatusAccepted {
		t.Fatalf("submit with refreshed epoch: %d", st)
	}
}

// TestMembershipGuards: removing a non-member or the last instance is
// refused, and re-adding a known id is a URL refresh, not a migration.
func TestMembershipGuards(t *testing.T) {
	instances, rt := newTier(t, 16, "c0")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if st, _ := postJSON(t, front.URL+"/v1/membership/remove", `{"id":"ghost"}`); st != http.StatusServiceUnavailable {
		t.Fatalf("remove of non-member: %d, want 503", st)
	}
	if st, _ := postJSON(t, front.URL+"/v1/membership/remove", `{"id":"c0"}`); st != http.StatusServiceUnavailable {
		t.Fatalf("remove of last instance: %d, want 503", st)
	}
	epoch0 := membershipEpoch(t, front.URL)
	if st, _ := postJSON(t, front.URL+"/v1/membership/add",
		fmt.Sprintf(`{"id":"c0","url":%q}`, instances[0].ts.URL)); st != http.StatusOK {
		t.Fatalf("re-add of known id: %d, want 200", st)
	}
	if got := membershipEpoch(t, front.URL); got != epoch0 {
		t.Fatalf("URL refresh bumped the epoch %d -> %d", epoch0, got)
	}
}

// TestMembershipBodyRefusals: a membership POST is read through the one
// bounded body reader — over 64 KiB is 413 oversized — and must be one
// JSON value: trailing bytes are 400 malformed, and nothing migrates.
func TestMembershipBodyRefusals(t *testing.T) {
	_, rt := newTier(t, 16, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	epoch0 := membershipEpoch(t, front.URL)
	for _, c := range []struct {
		name, body string
		status     int
		kind       string
	}{
		{"oversized", `{"id":"c1","pad":"` + strings.Repeat("x", 1<<16) + `"}`, http.StatusRequestEntityTooLarge, "oversized"},
		{"trailing bytes", `{"id":"c1"} {"id":"c0"}`, http.StatusBadRequest, "malformed"},
	} {
		if st, reply := postJSON(t, front.URL+"/v1/membership/remove", c.body); st != c.status || reply["kind"] != c.kind {
			t.Errorf("%s: %d %v, want %d %q", c.name, st, reply, c.status, c.kind)
		}
	}
	if got := membershipEpoch(t, front.URL); got != epoch0 {
		t.Fatalf("a refused membership body moved the epoch %d -> %d", epoch0, got)
	}
}

// TestGatherClientDisconnect (S1): a client that hangs up mid-query must
// cancel the in-flight fan-out legs AND must not get the slow instance
// marked Down — one impatient client must never degrade the tier.
func TestGatherClientDisconnect(t *testing.T) {
	real := newTierInstance(t, "fast", 16)
	canceled := make(chan struct{}, 8)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()

	rt, err := NewRouter(RouterConfig{
		Instances: []Instance{
			{ID: "fast", BaseURL: real.ts.URL},
			{ID: "slow", BaseURL: slow.URL},
		},
		FailureThreshold: 1, // one charged failure would mark it Down
		HedgeDelay:       -1,
		QueryDeadline:    8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/stats", nil)
		_, rerr := http.DefaultClient.Do(req)
		cancel()
		if rerr == nil {
			t.Fatal("stats answered before the slow leg; the disconnect never raced the gather")
		}
		// The per-leg context derives from the request context: the slow
		// instance must observe the cancellation promptly, not sit out the
		// full query deadline.
		select {
		case <-canceled:
		case <-time.After(3 * time.Second):
			t.Fatal("slow leg not canceled by client disconnect")
		}
	}
	if st := memberState(t, rt, "slow"); st == stateDown {
		t.Fatal("client disconnect marked the slow instance Down")
	}
	// A real straggler (no client disconnect) still gets charged: the
	// health machinery itself is intact.
	rt.members.observe("slow", sigFailed)
	if st := memberState(t, rt, "slow"); st != stateDown {
		t.Fatalf("control: direct failure left state %v, want Down (threshold 1)", st)
	}
}

// TestMembershipChurnNoLeak (S2): repeated add/remove cycles must leave
// no goroutines behind and no orphaned health entries — the probe loop
// must track exactly the current membership.
func TestMembershipChurnNoLeak(t *testing.T) {
	instances, rt := newTier(t, 32, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for i := range instances {
		if got := submitVia(t, front.URL, fmt.Sprintf("churn/base%d", i), synthShard(uint64(i)+1, 10)); got.status != http.StatusAccepted {
			t.Fatalf("seed submit: %d", got.status)
		}
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()
	const cycles = 4
	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("churn-%d", i)
		in := newTierInstance(t, id, 32)
		if st, rep := postJSON(t, front.URL+"/v1/membership/add",
			fmt.Sprintf(`{"id":%q,"url":%q}`, id, in.ts.URL)); st != http.StatusOK {
			t.Fatalf("cycle %d add: %d %v", i, st, rep)
		}
		if st, rep := postJSON(t, front.URL+"/v1/membership/remove",
			fmt.Sprintf(`{"id":%q}`, id)); st != http.StatusOK {
			t.Fatalf("cycle %d remove: %d %v", i, st, rep)
		}
		in.ts.Close() // the process is retired; its server goes away now, not at test end
	}

	// Health tracks exactly the surviving membership; a probe sweep does
	// not resurrect any removed instance.
	rt.Probe(context.Background())
	tracked, _ := rt.members.view()
	want := map[string]bool{"c0": true, "c1": true}
	if len(tracked) != len(want) {
		t.Fatalf("health tracks %v, want exactly c0 and c1", tracked)
	}
	for _, m := range tracked {
		if !want[m.id] {
			t.Fatalf("health still tracks removed instance %q", m.id)
		}
	}

	// Goroutine bound: everything the cycles spawned must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d+8 after churn\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The tier still balances: base shards retried dedupe.
	for i := range instances {
		got := submitVia(t, front.URL, fmt.Sprintf("churn/base%d", i), synthShard(uint64(i)+1, 10))
		if got.status != http.StatusAccepted || !got.Duplicate {
			t.Fatalf("base shard retry after churn: %d duplicate %v", got.status, got.Duplicate)
		}
	}
}

// TestMembershipSubmitRaceProperty is the seeded-schedule property test:
// submissions race live scale-out AND scale-in, and whatever the
// interleaving, no acknowledged shard is ever lost (the fleet's books
// sum to exactly the distinct captured total) and no retry ever
// double-merges (every retry answers duplicate).
func TestMembershipSubmitRaceProperty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, rt := newTier(t, 256, "c0", "c1", "c2")
			front := httptest.NewServer(rt.Handler())
			defer front.Close()

			const nShards = 32
			shardName := func(i int) string { return fmt.Sprintf("race/%d/s%03d", seed, i) }
			shardDB := func(i int) uint64 { return seed*1000 + uint64(i) }
			var wantCaptured uint64
			for i := 0; i < nShards; i++ {
				db := synthShard(shardDB(i), 20+i)
				wantCaptured += db.Samples() + db.Lost()
			}

			var wg sync.WaitGroup
			errs := make(chan error, 4)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nShards; i++ {
					shard := shardName(i)
					// Submit then immediately retry: the retry must dedupe
					// whatever migration is mid-flight.
					first := submitVia(t, front.URL, shard, synthShard(shardDB(i), 20+i))
					if first.status != http.StatusAccepted || first.Duplicate {
						errs <- fmt.Errorf("shard %s: first submit status %d duplicate %v",
							shard, first.status, first.Duplicate)
						return
					}
					retry := submitVia(t, front.URL, shard, synthShard(shardDB(i), 20+i))
					if retry.status != http.StatusAccepted || !retry.Duplicate {
						errs <- fmt.Errorf("shard %s: retry status %d duplicate %v — double-merge window",
							shard, retry.status, retry.Duplicate)
						return
					}
				}
			}()

			// Membership schedule, interleaved with the writer by seeded
			// jitter: grow by one, then shrink by one.
			jitter := time.Duration(seed%5) * 7 * time.Millisecond
			time.Sleep(jitter)
			grownID := fmt.Sprintf("cx-%d", seed)
			grown := newTierInstance(t, grownID, 256)
			if st, rep := postJSON(t, front.URL+"/v1/membership/add",
				fmt.Sprintf(`{"id":%q,"url":%q}`, grownID, grown.ts.URL)); st != http.StatusOK {
				t.Fatalf("add mid-flood: %d %v", st, rep)
			}
			time.Sleep(jitter)
			victim := []string{"c0", "c1", "c2"}[seed%3]
			if st, rep := postJSON(t, front.URL+"/v1/membership/remove",
				fmt.Sprintf(`{"id":%q}`, victim)); st != http.StatusOK {
				t.Fatalf("remove mid-flood: %d %v", st, rep)
			}

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			_ = rt

			// Conservation must converge EXACTLY once queues flush: the
			// books moved with the migration, nothing was lost or doubled.
			deadline := time.Now().Add(10 * time.Second)
			for {
				got := fleetCaptured(t, front.URL)
				if got == wantCaptured {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("fleet captured %d, want exactly %d (seed %d)", got, wantCaptured, seed)
				}
				time.Sleep(10 * time.Millisecond)
			}

			// And every shard still dedupes after the dust settles.
			for i := 0; i < nShards; i++ {
				got := submitVia(t, front.URL, shardName(i), synthShard(shardDB(i), 20+i))
				if got.status != http.StatusAccepted || !got.Duplicate {
					t.Fatalf("shard %s post-churn retry: %d duplicate %v (seed %d)",
						shardName(i), got.status, got.Duplicate, seed)
				}
			}
		})
	}
}

// frontInstance puts a hook in front of a real instance: before runs on
// every request (it may count it, or block to stall it) and the request
// then goes through to backend() untouched.
func frontInstance(t *testing.T, backend func() string, before func(r *http.Request)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before(r)
		target, err := url.Parse(backend())
		if err != nil {
			t.Error(err)
			return
		}
		httputil.NewSingleHostReverseProxy(target).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// stallingFront fronts backend with a hook that parks every request for
// path, announcing each on stalled, until release is called — by the test,
// or at its end so that a failing test still unwinds. Requests for any
// other path are counted in others.
func stallingFront(t *testing.T, backend, path string) (ts *httptest.Server, stalled <-chan struct{}, release func(), others *atomic.Int64) {
	t.Helper()
	parked, gate, others := make(chan struct{}, 8), make(chan struct{}), new(atomic.Int64)
	ts = frontInstance(t, func() string { return backend }, func(r *http.Request) {
		if r.URL.Path != path {
			others.Add(1)
			return
		}
		parked <- struct{}{}
		<-gate
	})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // registered after ts.Close, so it runs before it
	return ts, parked, release, others
}

// ownedBy returns the first shard id of the form prefix/sNNN, counting
// from start, that a ring over ids places on owner.
func ownedBy(owner, prefix string, start int, ids ...string) string {
	ring := NewRing(0, 0)
	for _, id := range ids {
		ring.Add(id)
	}
	for i := start; ; i++ {
		s := fmt.Sprintf("%s/s%03d", prefix, i)
		if got, _ := ring.Owner(s); got == owner {
			return s
		}
	}
}

// fleetTotals reads the three fleet sums a double count would inflate:
// /v1/stats samples+lost, the /v1/hotpcs samples total, and one PC's
// /v1/estimate samples and est_count.
func fleetTotals(t *testing.T, frontURL, pc string) [4]float64 {
	t.Helper()
	_, hot := getJSON(t, frontURL+"/v1/hotpcs?n=5")
	status, est := getJSON(t, frontURL+"/v1/estimate?pc="+pc)
	if status != http.StatusOK {
		t.Fatalf("estimate %s: %d %v", pc, status, est)
	}
	return [4]float64{float64(fleetCaptured(t, frontURL)), hot["samples"].(float64),
		est["samples"].(float64), est["est_count"].(float64)}
}

// TestRemovalNeverDoubleCounts: from the receiver's handoff ack until
// the commit the donor's samples exist twice in the tier. The donor is
// marked delivered at the ack and stops being a query leg, so every fleet
// sum equals the captured total THROUGH the adopt and confirm phases —
// held open here by a donor whose /v1/handoff/confirm stalls — and after.
func TestRemovalNeverDoubleCounts(t *testing.T) {
	c0, donor, c2 := newTierInstance(t, "c0", 64), newTierInstance(t, "c1", 64), newTierInstance(t, "c2", 64)
	donorFront, stalled, release, _ := stallingFront(t, donor.ts.URL, "/v1/handoff/confirm")
	rt := routerOver(t, c0, &tierInstance{id: "c1", ts: donorFront}, c2)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const nShards = 18
	for i := 0; i < nShards; i++ {
		if got := submitVia(t, front.URL, fmt.Sprintf("dbl/s%03d", i), synthShard(uint64(i)+3, 30+i)); got.status != http.StatusAccepted {
			t.Fatalf("seed shard %d: %d", i, got.status)
		}
	}
	waitForMerge(t, []*tierInstance{c0, donor, c2}, nShards)
	if donor.svc.Stats().Samples == 0 {
		t.Fatal("donor c1 holds no samples; the migration would be vacuous")
	}
	_, hot := getJSON(t, front.URL+"/v1/hotpcs?n=1")
	pc := hot["pcs"].([]any)[0].(map[string]any)["pc"].(string)
	want := fleetTotals(t, front.URL, pc)

	removed := make(chan error, 1)
	go func() {
		_, err := rt.removeInstance(context.Background(), "c1")
		removed <- err
	}()
	select {
	case <-stalled:
	case err := <-removed:
		t.Fatalf("removal finished without reaching confirm: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("removal never reached the donor's confirm")
	}
	if _, mem := getJSON(t, front.URL+"/v1/membership"); mem["migration"].(map[string]any)["phase"] != "confirm" {
		t.Fatalf("migration %v, want phase confirm", mem["migration"])
	}
	for i := 0; i < 3; i++ { // more than one: the first query must not change what the next sees
		if got := fleetTotals(t, front.URL, pc); got != want {
			t.Fatalf("fleet totals %v between the receiver's ack and the commit (read %d), want %v: the donor's samples count twice", got, i, want)
		}
	}
	release()
	if err := <-removed; err != nil {
		t.Fatalf("removal: %v", err)
	}
	if got := fleetTotals(t, front.URL, pc); got != want {
		t.Fatalf("fleet totals %v after the commit, want %v", got, want)
	}
}

// TestQueryLegDoesNotReviveDraining: a successful query leg proves an
// instance alive, not that it admits submissions. A Draining instance
// stays Draining across queries — so it is not offered, and does not
// refuse and loss-account, the next new shard it owns — until something
// that speaks for admission (here a 200 /readyz from the replacement
// process at its address) says otherwise.
func TestQueryLegDoesNotReviveDraining(t *testing.T) {
	c0, c1, c2 := newTierInstance(t, "c0", 64), newTierInstance(t, "c1", 64), newTierInstance(t, "c2", 64)
	var backend atomic.Pointer[tierInstance]
	backend.Store(c1)
	c1Front := frontInstance(t, func() string { return backend.Load().ts.URL }, func(*http.Request) {})
	rt := routerOver(t, c0, &tierInstance{id: "c1", ts: c1Front}, c2)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	c1.svc.BeginDrain()
	first := submitVia(t, front.URL, ownedBy("c1", "qleg", 0, "c0", "c1", "c2"), synthShard(5, 40))
	if first.status != http.StatusAccepted || len(first.RefusedBy) != 1 || first.RefusedBy[0] != "c1" {
		t.Fatalf("first c1-owned shard: status %d refused_by %v, want 202 refused by c1", first.status, first.RefusedBy)
	}
	lostBefore := c1.svc.Stats().SamplesLost

	if status, resp := getJSON(t, front.URL+"/v1/hotpcs"); status != http.StatusOK || resp["partial"].(bool) {
		t.Fatalf("hotpcs over a draining instance: %d %v (its query leg must still answer)", status, resp)
	}
	second := submitVia(t, front.URL, ownedBy("c1", "qleg", 1000, "c0", "c1", "c2"), synthShard(6, 40))
	if second.status != http.StatusAccepted || len(second.RefusedBy) != 0 || second.Instance == "c1" {
		t.Fatalf("second c1-owned shard: status %d at %s refused_by %v, want 202 elsewhere with nobody asked in vain",
			second.status, second.Instance, second.RefusedBy)
	}
	if lost := c1.svc.Stats().SamplesLost; lost != lostBefore {
		t.Fatalf("c1 samples_lost moved %d -> %d: a query leg re-opened admission to a draining instance", lostBefore, lost)
	}
	if st := memberState(t, rt, "c1"); st != stateDraining {
		t.Fatalf("c1 is %v after a query leg, want still draining", st)
	}

	// The drain ends: a fresh process answers at c1's address. Its 200
	// /readyz is what re-opens admission.
	backend.Store(newTierInstance(t, "c1", 64))
	rt.Probe(context.Background())
	if st := memberState(t, rt, "c1"); st != stateHealthy {
		t.Fatalf("c1 is %v after a 200 /readyz, want healthy", st)
	}
	if third := submitVia(t, front.URL, ownedBy("c1", "qleg", 2000, "c0", "c1", "c2"), synthShard(7, 40)); third.Instance != "c1" {
		t.Fatalf("revived owner not offered its shard: landed at %s", third.Instance)
	}
}

// TestJoiningInstanceTakesNoTraffic: until addInstance commits, the
// newcomer is a stranger — /v1/membership shows the old members at the
// old epoch, and no fan-out leg or probe reaches it. Its adopt endpoint
// stalls here to hold the window open; every other request it receives is
// counted.
func TestJoiningInstanceTakesNoTraffic(t *testing.T) {
	instances, rt := newTier(t, 64, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	const nShards = 24
	for i := 0; i < nShards; i++ {
		if got := submitVia(t, front.URL, fmt.Sprintf("join/s%03d", i), synthShard(uint64(i)+1, 20)); got.status != http.StatusAccepted {
			t.Fatalf("seed shard %d: %d", i, got.status)
		}
	}
	waitForMerge(t, instances, nShards)
	epoch0 := membershipEpoch(t, front.URL)

	newcomer := newTierInstance(t, "c2", 64)
	newcomerFront, stalled, release, others := stallingFront(t, newcomer.ts.URL, "/v1/ledger/adopt")
	added := make(chan error, 1)
	go func() {
		_, err := rt.addInstance(context.Background(), "c2", newcomerFront.URL)
		added <- err
	}()
	select {
	case <-stalled:
	case err := <-added:
		t.Fatalf("add finished without adopting anything at the newcomer: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("add never reached the newcomer's adopt endpoint")
	}

	_, mem := getJSON(t, front.URL+"/v1/membership")
	members := mem["instances"].(map[string]any)
	if _, listed := members["c2"]; listed || len(members) != 2 || uint64(mem["epoch"].(float64)) != epoch0 {
		t.Fatalf("membership mid-adopt: epoch %v instances %v, want c0 and c1 at epoch %d", mem["epoch"], members, epoch0)
	}
	_, stats := getJSON(t, front.URL+"/v1/stats")
	if n := stats["fleet"].(map[string]any)["instances"].(float64); n != 2 || stats["partial"].(bool) {
		t.Fatalf("fleet.instances %v partial %v mid-adopt, want 2 and whole", n, stats["partial"])
	}
	rt.Probe(context.Background())
	getJSON(t, front.URL+"/v1/hotpcs")
	if _, ready := getJSON(t, front.URL+"/readyz"); len(ready["instances"].(map[string]any)) != 2 {
		t.Fatalf("readyz mid-adopt names %v", ready["instances"])
	}
	if n := others.Load(); n != 0 {
		t.Fatalf("the joining instance received %d requests besides its adoption", n)
	}

	release()
	if err := <-added; err != nil {
		t.Fatalf("add: %v", err)
	}
	_, mem = getJSON(t, front.URL+"/v1/membership")
	if _, listed := mem["instances"].(map[string]any)["c2"]; !listed || uint64(mem["epoch"].(float64)) != epoch0+1 {
		t.Fatalf("membership after commit: %v", mem)
	}
	getJSON(t, front.URL+"/v1/hotpcs")
	if others.Load() == 0 {
		t.Fatal("the committed member is still not a query leg")
	}
}

// TestMembershipEndpointIsOneSnapshot: every /v1/membership body is one
// instant — its instance set is the membership OF the epoch it carries,
// and every member it names has a URL. Add/remove churn runs against a
// poller; the first body seen at an epoch fixes that epoch's set, and
// since the churn is sequential the set is also known outright. The churn
// runs at least six cycles and until the poller has decoded ten bodies,
// so a loaded machine slows the test rather than failing it; a poller
// still short of ten after 64 cycles fails it.
func TestMembershipEndpointIsOneSnapshot(t *testing.T) {
	_, rt := newTier(t, 32, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if got := submitVia(t, front.URL, "snap/s0", synthShard(1, 10)); got.status != http.StatusAccepted {
		t.Fatalf("seed submit: %d", got.status)
	}
	epoch0 := membershipEpoch(t, front.URL)

	var decoded atomic.Int64
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		seen := map[uint64]string{}
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(front.URL + "/v1/membership")
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			var body struct {
				Epoch     uint64 `json:"epoch"`
				Instances map[string]struct {
					URL string `json:"url"`
				} `json:"instances"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			decoded.Add(1)
			ids := make([]string, 0, len(body.Instances))
			for id, in := range body.Instances {
				if in.URL == "" {
					t.Errorf("epoch %d names member %s without a URL", body.Epoch, id)
				}
				ids = append(ids, id)
			}
			sort.Strings(ids)
			set := strings.Join(ids, ",")
			if first, ok := seen[body.Epoch]; ok && first != set {
				t.Errorf("epoch %d answered as {%s} and as {%s}", body.Epoch, first, set)
			}
			seen[body.Epoch] = set
			// Epoch epoch0+2k is {c0,c1}; epoch0+2k+1 also holds churn-k.
			want := "c0,c1"
			if d := body.Epoch - epoch0; d%2 == 1 {
				want = fmt.Sprintf("c0,c1,churn-%d", d/2)
			}
			if set != want {
				t.Errorf("epoch %d answered as {%s}, its membership is {%s}", body.Epoch, set, want)
			}
			if t.Failed() {
				return
			}
		}
	}()

	for i := 0; i < 64 && (i < 6 || decoded.Load() < 10) && !t.Failed(); i++ {
		id := fmt.Sprintf("churn-%d", i)
		in := newTierInstance(t, id, 32)
		if _, err := rt.addInstance(context.Background(), id, in.ts.URL); err != nil {
			t.Fatalf("cycle %d add: %v", i, err)
		}
		if _, err := rt.removeInstance(context.Background(), id); err != nil {
			t.Fatalf("cycle %d remove: %v", i, err)
		}
	}
	close(stop)
	<-polled
	if n := decoded.Load(); n < 10 {
		t.Fatalf("only %d membership bodies polled across the churn", n)
	}
}

// TestSetInstanceKnownIDsOnly: SetInstance re-registers a member; it is
// not a way to become one. An unknown id changes nothing — no ring
// position, no epoch, no traffic.
func TestSetInstanceKnownIDsOnly(t *testing.T) {
	instances, rt := newTier(t, 16, "c0", "c1")
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	epoch0 := membershipEpoch(t, front.URL)

	rt.SetInstance("ghost", "http://127.0.0.1:1")
	_, mem := getJSON(t, front.URL+"/v1/membership")
	if _, listed := mem["instances"].(map[string]any)["ghost"]; listed || uint64(mem["epoch"].(float64)) != epoch0 {
		t.Fatalf("SetInstance of an unknown id changed the membership: %v", mem)
	}
	if _, stats := getJSON(t, front.URL+"/v1/stats"); stats["partial"].(bool) {
		t.Fatalf("a fan-out leg went to the unknown id: %v", stats["missing"])
	}

	rt.SetInstance("c1", "http://127.0.0.1:1")
	_, mem = getJSON(t, front.URL+"/v1/membership")
	if got := mem["instances"].(map[string]any)["c1"].(map[string]any)["url"]; got != "http://127.0.0.1:1" || uint64(mem["epoch"].(float64)) != epoch0 {
		t.Fatalf("SetInstance of a member: url %v epoch %v, want the new URL at epoch %d", got, mem["epoch"], epoch0)
	}
	rt.SetInstance("c1", instances[1].ts.URL)
}
