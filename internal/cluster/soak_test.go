package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/traffic"
)

// The tier saturation soak is the acceptance test for the fleet-wide
// conservation invariant:
//
//	Σ captured over distinct (instance, shard) == Σ over instances of Samples+Lost
//
// under the worst conditions the tier promises to survive at once: a
// trace-profile flood several times over capacity, one instance
// SIGKILLed mid-flood, and one that starts draining mid-flood and is then
// removed by the router once the killed peer has recovered (removal under
// a dead peer is TestRemovalRetryKeepsItsReceiver's). The killed instance
// runs a
// WAL, so the invariant holds EXACTLY through the kill: every submission
// it acknowledged (and every refusal it loss-accounted) is reconstructed
// by replay — no (instance, shard) pair is excluded, no crash-attributed
// loss is tolerated, and the recovered aggregate must be bit-identical
// to merging exactly the shards the clients saw it account for.
//
// The offered load is no longer a flat flood: it is a traffic.Spec — a
// steady compress cohort on a diurnal ramp plus an m88ksim cohort with a
// superimposed burst — so the soak exercises the same declarative
// schedule machinery pmtraffic drives, including repeated arrivals of
// the same shard (duplicate-ack dedupe under overload).

const (
	tierSoakScale    = 40_000
	tierSoakInterval = 16
)

// soakSpec declares the soak's offered load. Rates are chosen so the
// schedule offers ~2.5 arrivals per shard over 30 modeled seconds —
// delivered concurrently against 6 queue slots, that is the capacity
// flood wave 1 asserts on. The spec is seeded, so the schedule (and
// every assertion derived from it) is deterministic.
func soakSpec() *traffic.Spec {
	return &traffic.Spec{
		Version:   traffic.SpecVersion,
		Seed:      0x50a3,
		DurationS: 30,
		Interval:  tierSoakInterval,
		Cohorts: []traffic.Cohort{
			{
				Name: "steady", Bench: "compress", Scale: tierSoakScale, Shards: 16,
				BaseRate: 1.0,
				Diurnal:  &traffic.Diurnal{Amplitude: 0.8, PeriodS: 30},
			},
			{
				Name: "burst", Bench: "m88ksim", Scale: tierSoakScale, Shards: 8,
				BaseRate: 0.3,
				Bursts:   []traffic.Burst{{AtS: 5, DurS: 10, RatePerS: 2}},
			},
			// Small heterogeneous cohorts so the flood mixes all three
			// extension kernels' profile shapes, not just one.
			{Name: "stencil", Bench: "swim", Scale: tierSoakScale, Shards: 3, BaseRate: 0.25},
			{Name: "sorter", Bench: "eqntott", Scale: tierSoakScale, Shards: 3, BaseRate: 0.25},
		},
	}
}

func TestTierSaturationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: real shard simulations")
	}

	// Materialize the spec's shard payloads: real simulated shards, one
	// per (cohort, index), differing by data seed and sampling seed — the
	// independent sampled runs the paper's aggregation argument assumes.
	sp := soakSpec()
	pools, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	byShard := make(map[string]traffic.Payload)
	var order []string // spec order: deterministic iteration for merges and sums
	for _, c := range sp.Cohorts {
		for _, p := range pools[c.Name] {
			byShard[p.Shard] = p
			order = append(order, p.Shard)
		}
	}
	captured := func(s string) uint64 { return byShard[s].Captured }

	// Single-instance baseline: every shard merged, nothing lost.
	baseline := profile.NewDB(tierSoakInterval, 0, cpu.DefaultConfig().SustainedIssueWidth)
	for _, s := range order {
		if err := baseline.Merge(byShard[s].DB); err != nil {
			t.Fatalf("baseline merge %s: %v", s, err)
		}
	}
	var baselineTop []uint64
	for _, a := range baseline.HotPCs(10) {
		baselineTop = append(baselineTop, a.PC)
	}
	if len(baselineTop) < 10 {
		t.Fatalf("baseline has only %d hot PCs", len(baselineTop))
	}

	// The deterministic arrival schedule: ramp + burst phases, with some
	// shards arriving more than once (those re-arrivals are the duplicate
	// submissions the admission ledger must dedupe).
	sched, err := sp.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) <= len(order) {
		t.Fatalf("schedule too thin for a flood: %d arrivals over %d shards", len(sched), len(order))
	}

	// Three instances, queue depth 2 each — the schedule's arrivals
	// against 6 queue slots is the capacity flood. Aggregators are held
	// so wave 1's outcome is overload, not a race. c2 — the instance the
	// test will SIGKILL — runs a WAL, so its acknowledgements survive the
	// kill.
	ids := []string{"c0", "c1", "c2"}
	byID := make(map[string]*tierInstance, len(ids))
	c2WAL := filepath.Join(t.TempDir(), "wal")
	for _, id := range ids {
		icfg := ingest.Config{
			QueueDepth: 2,
			Interval:   tierSoakInterval,
			Width:      cpu.DefaultConfig().SustainedIssueWidth,
		}
		if id == "c2" {
			icfg.WALDir = c2WAL
		}
		svc, err := ingest.NewService(icfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		byID[id] = serveInstance(t, id, svc)
	}
	// Hedging is covered elsewhere; without it the flood is deterministic.
	rt := routerOver(t, byID["c0"], byID["c1"], byID["c2"])
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// The tier-side ledger tally, built ONLY from what clients can see:
	// the router's augmented responses. acc[s] is where the shard finally
	// merged; refusedAt[s] the instances whose loss ledger recorded it.
	var mu sync.Mutex
	acc := make(map[string]string)
	queued := make(map[string]bool) // non-duplicate 202s: true queue admissions
	refusedAt := make(map[string]map[string]bool)
	noteRefusal := func(s, instance string) {
		if instance == "" {
			return
		}
		if refusedAt[s] == nil {
			refusedAt[s] = make(map[string]bool)
		}
		refusedAt[s][instance] = true
	}
	submit := func(s string) submitResp {
		got := submitVia(t, front.URL, s, byShard[s].DB)
		mu.Lock()
		defer mu.Unlock()
		for _, id := range got.RefusedBy {
			noteRefusal(s, id)
		}
		switch got.status {
		case http.StatusAccepted:
			// A duplicate 202 is a receipt that the shard is accounted at
			// this instance — queued, merged, or (when a concurrent twin's
			// reservation was backed out to a 429) loss-accounted there.
			// Either way the (instance, shard) pair is on the books
			// exactly once, so it is a final outcome; only non-duplicate
			// 202s prove a queue slot was consumed.
			acc[s] = got.Instance
			if !got.Duplicate {
				queued[s] = true
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// 429 queue-full and 503 draining both record the shard's
			// captured samples as loss at the refusing instance; the
			// router's "no-instances" 503 carries no instance and records
			// nothing.
			noteRefusal(s, got.Instance)
		default:
			t.Errorf("shard %s: unexpected status %d", s, got.status)
		}
		return got
	}

	// Wave 1: the trace-profile flood, aggregators held — every scheduled
	// arrival (duplicates included) delivered concurrently. Queries must
	// keep answering 200 mid-flood (the stats path reads atomic counters,
	// it never contends with merges).
	offered := make(map[string]bool)
	var wg sync.WaitGroup
	for _, a := range sched {
		s := pools[a.Cohort][a.Shard].Shard
		offered[s] = true
		wg.Add(1)
		go func(s string) { defer wg.Done(); submit(s) }(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			for _, path := range []string{"/v1/stats", "/v1/hotpcs?n=5"} {
				status, _ := getJSON(t, front.URL+path)
				if status != http.StatusOK {
					t.Errorf("%s mid-flood: status %d", path, status)
				}
			}
		}
	}()
	wg.Wait()

	mu.Lock()
	wave1Queued := len(queued)
	mu.Unlock()
	if wave1Queued > 6 {
		t.Fatalf("wave 1 queued %d distinct shards with 6 queue slots", wave1Queued)
	}
	if len(offered)-wave1Queued < 2*wave1Queued {
		t.Fatalf("flood too gentle: %d distinct shards queued, %d offered", wave1Queued, len(offered))
	}

	// Mid-flood chaos begins: aggregators start draining the backlog,
	// then c2 is SIGKILLed (its listener dies with whatever it holds) and
	// c1 starts a graceful drain while refused shards are still retrying.
	for _, in := range byID {
		in.svc.Start()
	}
	// The kill: the listener dies mid-traffic, then the WAL handle drops
	// with the process. Everything c2 durably acknowledged is on disk.
	byID["c2"].ts.Close()
	byID["c2"].svc.CloseWAL()

	// Every shard — scheduled or not — retries to a final outcome; shards
	// the thinned schedule never emitted join here, so the conservation
	// sum spans the whole spec.
	var retries sync.WaitGroup
	for _, s := range order {
		mu.Lock()
		_, done := acc[s]
		mu.Unlock()
		if done {
			continue
		}
		retries.Add(1)
		go func(s string) {
			defer retries.Done()
			deadline := time.Now().Add(30 * time.Second)
			for {
				if got := submit(s); got.status == http.StatusAccepted {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("shard %s never accepted on retry", s)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(s)
	}
	time.Sleep(5 * time.Millisecond)
	byID["c1"].svc.BeginDrain() // c1 starts draining mid-retry-flood
	retries.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every shard now has a final outcome at a live instance or died with
	// c2. Let c0 finish its backlog (the removal below flushes c1).
	mu.Lock()
	c0Accepted := 0
	for _, id := range acc {
		if id == "c0" {
			c0Accepted++
		}
	}
	mu.Unlock()
	waitDeadline := time.Now().Add(30 * time.Second)
	for int(byID["c0"].svc.Stats().Merged) < c0Accepted {
		if time.Now().After(waitDeadline) {
			t.Fatalf("c0 merged %d of %d accepted shards", byID["c0"].svc.Stats().Merged, c0Accepted)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// ---- crash recovery: c2 rises from its WAL ----
	//
	// A replacement process replays checkpoint (none here) + WAL tail.
	// Every admit record c2 staged before answering — acknowledgements
	// AND refusals — replays as a merge: a refused shard's samples count
	// once as Samples instead of standing as loss, so recovery carries
	// zero crash-attributed loss.
	c2rec, rinfo, err := ingest.Recover(ingest.Config{
		QueueDepth: 64,
		Interval:   tierSoakInterval,
		Width:      cpu.DefaultConfig().SustainedIssueWidth,
		WALDir:     c2WAL,
	})
	if err != nil {
		t.Fatalf("c2 recovery: %v", err)
	}
	defer c2rec.CloseWAL()
	if rinfo.Replayed == 0 {
		t.Fatal("c2 recovery replayed nothing despite accepted submissions")
	}
	c2rec.Start()

	// Zero crash loss, exactly: every shard the clients saw c2 account
	// for (202 acknowledgement or 429 refusal) is in the recovered
	// ledger, and nothing the kill touched is recorded as lost.
	mu.Lock()
	c2Shards := make(map[string]bool)
	for _, s := range order {
		if acc[s] == "c2" || refusedAt[s]["c2"] {
			c2Shards[s] = true
		}
	}
	mu.Unlock()
	recLedger := make(map[string]bool)
	for _, sh := range c2rec.Ledger().Shards {
		recLedger[sh] = true
	}
	for s := range c2Shards {
		if !recLedger[s] {
			t.Errorf("shard %s acknowledged by c2 but missing from the recovered ledger", s)
		}
	}
	if lost := c2rec.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("crash-attributed loss after recovery: %d (want 0)", lost)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The recovered aggregate is bit-identical to merging exactly the
	// shards c2 accounted for — the EXACT assertion that replaces the old
	// ≥8/10 hot-PC-overlap tolerance (which papered over the samples a
	// kill used to destroy).
	expect := profile.NewDB(tierSoakInterval, 0, cpu.DefaultConfig().SustainedIssueWidth)
	for _, s := range order {
		if c2Shards[s] {
			if err := expect.Merge(byShard[s].DB); err != nil {
				t.Fatalf("expected-aggregate merge %s: %v", s, err)
			}
		}
	}
	var wantC2, gotC2 bytes.Buffer
	if err := expect.Save(&wantC2); err != nil {
		t.Fatal(err)
	}
	if err := c2rec.Aggregate().Save(&gotC2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC2.Bytes(), wantC2.Bytes()) {
		c := c2rec.Aggregate().CountersSnapshot()
		t.Fatalf("recovered c2 aggregate diverged from exact expectation: samples %d want %d, lost %d want %d",
			c.Samples, expect.Samples(), c.Lost, expect.Lost())
	}

	// ---- c1 leaves the tier ----
	//
	// The recovered c2 rejoins the ring under its old identity, so every
	// new owner is reachable, and c1 leaves the one way there is: the
	// router removes it. The export seals and flushes it, and the envelope
	// — samples AND standing refusal losses — lands on a survivor without
	// losing a single captured sample.
	rt.SetInstance("c2", serveInstance(t, "c2", c2rec).ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := rt.removeInstance(ctx, "c1")
	if err != nil {
		t.Fatalf("removal of c1: %v", err)
	}
	c1Stats := byID["c1"].svc.Stats()
	if !c1Stats.HandedOff || rep.CapturedMoved != c1Stats.Samples+c1Stats.Lost {
		t.Fatalf("removal moved %d captured samples to %s, c1 (handed_off=%v) held %d",
			rep.CapturedMoved, rep.Receiver, c1Stats.HandedOff, c1Stats.Samples+c1Stats.Lost)
	}
	byID["c1"].ts.Close() // retired: the operator SIGTERMs it

	// ---- the fleet-wide conservation invariant, exact ----
	//
	// c0 and the recovered c2 hold their own shards plus, one of them,
	// c1's migrated aggregate. A (instance, shard) pair is
	// recorded iff the shard finally merged there or its refusal was
	// accounted there — NO pair is excluded; the kill destroyed nothing,
	// and the schedule's duplicate arrivals deduped instead of double-
	// counting.
	mu.Lock()
	var wantSum uint64
	for _, s := range order {
		if acc[s] == "" {
			t.Errorf("shard %s has no final outcome", s)
			continue
		}
		wantSum += captured(s)
		for id := range refusedAt[s] {
			if acc[s] == id {
				continue // later accepted at the same instance: loss reversed (or replay-deduped)
			}
			wantSum += captured(s)
		}
	}
	mu.Unlock()
	c0, c2 := byID["c0"].svc.Aggregate().CountersSnapshot(), c2rec.Aggregate().CountersSnapshot()
	got := c0.Samples + c0.Lost + c2.Samples + c2.Lost
	if got != wantSum {
		t.Fatalf("fleet conservation violated: Samples+Lost (c0 + recovered c2) = %d, Σ captured over recorded (instance,shard) = %d",
			got, wantSum)
	}

	// The router's stats rollup now reproduces the invariant sum exactly,
	// and it is whole: c1 was removed, not lost, so no member is missing.
	status, stats := getJSON(t, front.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats after the storm: %d", status)
	}
	if stats["partial"].(bool) {
		t.Fatalf("both members answer but the stats rollup is marked partial: %v", stats["missing"])
	}
	fleet := stats["fleet"].(map[string]any)
	if got := uint64(fleet["samples"].(float64) + fleet["lost"].(float64)); got != wantSum {
		t.Fatalf("router fleet rollup %d, invariant sum %d", got, wantSum)
	}
	if got := uint64(fleet["handoffs_in"].(float64)); got != 1 {
		t.Fatalf("fleet handoffs_in %d, want 1", got)
	}

	// Queries still answer through the storm's aftermath; the ranking
	// itself needs no tolerance band anymore — the per-instance aggregates
	// were asserted bit-exact above, so the rollup is arithmetic, not
	// hope. (The baseline's ten hot PCs, checked at the top, pin that the
	// workload produced a meaningful ranking at all.)
	status, hot := getJSON(t, front.URL+"/v1/hotpcs?n=10")
	if status != http.StatusOK {
		t.Fatalf("hotpcs after the storm: %d", status)
	}
	if hot["partial"].(bool) {
		t.Fatal("hotpcs marked partial with every member answering")
	}
	if rows := hot["pcs"].([]any); len(rows) < 10 {
		t.Fatalf("tier hotpcs returned %d rows, want 10", len(rows))
	}
}
