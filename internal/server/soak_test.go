package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// The overload soak is the acceptance test for the service's degradation
// contract, the paper's §6 argument lifted to a distributed collector:
// flooding ingest beyond queue capacity may lose shards, but every loss
// is accounted (conservation is EXACT, not approximate), the
// loss-corrected hot-PC ranking survives, and a drain in the middle of
// the flood still ends in a CRC-valid checkpoint.

const (
	soakShards   = 20
	soakScale    = 60_000
	soakInterval = 16
)

// soakShardDB runs one real simulated shard through runner.RunShard, the
// one way a shard is made, with a shard-specific sampling seed.
func soakShardDB(t *testing.T, seed uint64) *profile.DB {
	t.Helper()
	b, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("no compress benchmark")
	}
	sh, err := runner.RunShard(context.Background(), b.Build(soakScale), cpu.DefaultConfig(), core.Config{
		MeanInterval: soakInterval,
		BufferDepth:  8,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         seed,
	}, nil, nil)
	if err != nil {
		t.Fatalf("shard sim (seed %d): %v", seed, err)
	}
	return sh.DB
}

func topPCs(db *profile.SafeDB, n int) []uint64 {
	var pcs []uint64
	for _, a := range db.HotPCs(n) {
		pcs = append(pcs, a.PC)
	}
	return pcs
}

func overlap(a, b []uint64) int {
	set := make(map[uint64]bool, len(a))
	for _, pc := range a {
		set[pc] = true
	}
	n := 0
	for _, pc := range b {
		if set[pc] {
			n++
		}
	}
	return n
}

func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: real shard simulations")
	}

	// Real shards, differing only by sampling seed — the independent
	// sampled runs the paper's aggregation argument assumes.
	shards := make([]*profile.DB, soakShards)
	for i := range shards {
		shards[i] = soakShardDB(t, uint64(i)+1)
	}

	// Unloaded baseline: every shard merged, nothing lost to overload.
	baseline := profile.NewDB(soakInterval, 0, cpu.DefaultConfig().SustainedIssueWidth)
	for i, sh := range shards {
		if err := baseline.Merge(sh); err != nil {
			t.Fatalf("baseline merge %d: %v", i, err)
		}
	}
	baselineTop := topPCs(profile.NewSafeDBWith(baseline, profile.SketchConfig{}), 10)
	if len(baselineTop) < 10 {
		t.Fatalf("baseline has only %d hot PCs", len(baselineTop))
	}

	ckptPath := filepath.Join(t.TempDir(), "agg.db")
	svc, err := ingest.NewService(ingest.Config{
		QueueDepth:     4, // wave 1 floods at 4x this
		Interval:       soakInterval,
		Width:          cpu.DefaultConfig().SustainedIssueWidth,
		CheckpointPath: ckptPath,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{}, svc).Handler())
	defer ts.Close()

	// Per-shard final outcome: the conservation invariant ranges over
	// DISTINCT shards (clients retry, the service dedupes and reverses),
	// while refusal responses are counted per attempt.
	var mu sync.Mutex
	shardAccepted := make([]bool, soakShards)
	shardRefused := make([]bool, soakShards) // refused at least once
	var refusedResponses int
	submit := func(i int) int {
		body, err := ingest.EncodeSubmit(fmt.Sprintf("compress/s%03d", i), shards[i])
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
			return 0
		}
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		switch resp.StatusCode {
		case http.StatusAccepted:
			shardAccepted[i] = true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shardRefused[i] = true
			refusedResponses++
		default:
			t.Errorf("submit %d: unexpected status %d", i, resp.StatusCode)
		}
		return resp.StatusCode
	}
	captured := func(i int) uint64 { return shards[i].Samples() + shards[i].Lost() }

	// Wave 1: 16 concurrent submissions against a 4-deep queue with the
	// aggregator deliberately held — a 4x flood with a deterministic
	// outcome: exactly queue-capacity accepted, the rest 429'd.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); submit(i) }(i)
	}
	// The daemon must keep answering queries mid-flood.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Errorf("stats mid-flood: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stats mid-flood: status %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	wave1Accepted := 0
	for i := 0; i < 16; i++ {
		if shardAccepted[i] {
			wave1Accepted++
		}
	}
	if wave1Accepted != 4 || refusedResponses != 12 {
		t.Fatalf("wave 1: accepted %d refused %d, want 4/12", wave1Accepted, refusedResponses)
	}

	// Retry phase: the aggregator starts draining the queue and every
	// 429'd shard retries until accepted — the sink taxonomy's transient
	// path. Each success must REVERSE the loss recorded at refusal, or
	// the same samples end up counted as both merged and lost (the
	// double-count the conservation check below would catch).
	svc.Start()
	for i := 0; i < 16; i++ {
		if shardAccepted[i] {
			continue
		}
		deadline := time.Now().Add(30 * time.Second)
		for !shardAccepted[i] {
			if status := submit(i); status == http.StatusAccepted {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never accepted on retry", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Idempotency probe: resubmit an already-merged shard — the retry a
	// client issues when a 202 response is lost in transit. It must be
	// acknowledged as a duplicate, not merged a second time.
	{
		body, err := ingest.EncodeSubmit("compress/s000", shards[0])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("duplicate resubmission: status %d, want 202", resp.StatusCode)
		}
	}

	// Wave 2: drain begins while submissions are still arriving — the
	// daemon's SIGTERM sequence (stop admitting, let HTTP settle, flush,
	// final checkpoint). Each late shard is either admitted (and then
	// flushed by the drain) or refused-with-accounting; no third outcome
	// exists. These refusals are NOT retried: their loss stays.
	for i := 16; i < soakShards; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); submit(i) }(i)
	}
	time.Sleep(time.Millisecond)
	svc.BeginDrain()
	wg.Wait() // in-flight HTTP settles (httpSrv.Shutdown in the daemon)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain mid-flood: %v", err)
	}

	// Tally final outcomes: every one of the 20 distinct shards was
	// submitted at least once, so conservation ranges over all of them.
	var capturedAll, capturedLost, reversedWant uint64
	mergedShards := 0
	for i := 0; i < soakShards; i++ {
		capturedAll += captured(i)
		switch {
		case shardAccepted[i]:
			mergedShards++
			if shardRefused[i] {
				// Refused then accepted on retry: its refusal loss must
				// have been reversed.
				reversedWant += captured(i)
			}
		default:
			capturedLost += captured(i)
		}
	}

	// Conservation must be exact over distinct shards: every captured
	// sample is in the aggregate or in its loss ledger, never both —
	// retried-to-success shards count once (loss reversed), duplicates
	// count once (deduped).
	agg := svc.Aggregate()
	c := agg.CountersSnapshot()
	if got := c.Samples + c.Lost; got != capturedAll {
		t.Fatalf("conservation violated: aggregate %d + lost = %d, distinct shards captured %d",
			c.Samples, got, capturedAll)
	}
	st := svc.Stats()
	if st.MergeFailed != 0 {
		t.Fatalf("%d accepted submissions failed to merge", st.MergeFailed)
	}
	if int(st.OverloadRejected) != refusedResponses {
		t.Fatalf("refusal ledger %d, HTTP refusals %d", st.OverloadRejected, refusedResponses)
	}
	if int(st.Merged) != mergedShards {
		t.Fatalf("merged %d, accepted shards %d", st.Merged, mergedShards)
	}
	if st.SamplesLost != capturedLost || c.Lost != capturedLost {
		t.Fatalf("loss ledger %d (stats %d), finally-refused shards captured %d",
			c.Lost, st.SamplesLost, capturedLost)
	}
	if st.LossReversed != reversedWant {
		t.Fatalf("loss reversed %d, retried-to-success shards captured %d", st.LossReversed, reversedWant)
	}
	if st.Duplicates < 1 {
		t.Fatal("duplicate resubmission was not deduped")
	}

	// The ranking survives losing most of the fleet to overload: the
	// degraded aggregate's top 10 matches the unloaded baseline's (same
	// bar as the PR 1 chaos soak).
	if got := overlap(baselineTop, topPCs(agg, 10)); got < 8 {
		t.Fatalf("top-10 overlap %d/10 after overload, want >= 8", got)
	}

	// The mid-flood drain ended in a CRC-valid checkpoint carrying the
	// full accounting.
	ck, err := ingest.LoadCheckpointFile(ckptPath)
	if err != nil || ck == nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	loaded := ck.Aggregate()
	if loaded.Samples() != c.Samples || loaded.Lost() != c.Lost {
		t.Fatalf("checkpoint totals %d/%d, aggregate %d/%d",
			loaded.Samples(), loaded.Lost(), c.Samples, c.Lost)
	}

	// And the loss-corrected estimator still centres: total estimated
	// retires from the degraded aggregate match the baseline's within the
	// usual sampling tolerance.
	var estDegraded, estBaseline float64
	for _, pc := range baselineTop {
		acc, v, _ := agg.Get(pc)
		estDegraded += float64(acc.EventCount(core.EvRetired)) * v.RecordS * v.LossCorr
		estBaseline += baseline.EstimatedEventCount(pc, core.EvRetired)
	}
	if rel := (estDegraded - estBaseline) / estBaseline; rel < -0.15 || rel > 0.15 {
		t.Fatalf("hot-set retire estimate drifted %.1f%% under overload", 100*rel)
	}

	// The soak's denominator proves the flood was a flood: wave 1 alone
	// must have produced 3 refusals for every admitted shard.
	if refusedResponses < 3*wave1Accepted {
		t.Fatalf("flood too gentle: %d refusal responses vs %d wave-1 acceptances",
			refusedResponses, wave1Accepted)
	}
}
