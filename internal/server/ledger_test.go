package server

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"

	"profileme/internal/ingest"
)

// TestLedgerEndpointIsOneSnapshot hammers Submit (and an adoption) from
// several goroutines while polling /v1/ledger, and requires every reply
// to describe one instant: the router's migration classifies shard ids
// from exactly this payload. Served from four separately-locked reads,
// a shard admitted and merged between the first and the second shows up
// in "applied" and not in "shards".
func TestLedgerEndpointIsOneSnapshot(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) {
		c.QueueDepth = 2 // refusals and retries, so "refused" is populated too
		c.CheckpointPath = ""
	})
	svc.Start()
	h := New(Config{Instance: "c0"}, svc).Handler()

	const submitters, perSubmitter = 4, 120
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				shard := fmt.Sprintf("g%d/s%03d", g, i)
				sub := ingest.Submission{Shard: shard, DB: testShard(uint64(g*1000+i), 3)}
				for errors.Is(svc.Submit(sub), ingest.ErrQueueFull) {
				}
				if i%10 == 0 {
					if _, err := svc.AdoptShards("c9", []string{fmt.Sprintf("moved/g%d/s%03d", g, i)}); err != nil {
						t.Errorf("adopt: %v", err)
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	polls := 0
	for finished := false; !finished; polls++ {
		select {
		case <-done:
			finished = true // one last poll over the settled books
		default:
		}
		status, body := get(t, h, "/v1/ledger")
		if status != http.StatusOK {
			t.Fatalf("ledger: %d %v", status, body)
		}
		shards := map[string]bool{}
		for _, sh := range body["shards"].([]any) {
			shards[sh.(string)] = true
		}
		if n := int(body["count"].(float64)); n != len(shards) {
			t.Fatalf("poll %d: count %d but %d shards", polls, n, len(shards))
		}
		applied := map[string]bool{}
		for _, sh := range body["applied"].([]any) {
			applied[sh.(string)] = true
			if !shards[sh.(string)] {
				t.Fatalf("poll %d: %s is applied but not in shards: the reply is torn", polls, sh)
			}
		}
		for sh := range body["refused"].(map[string]any) {
			if applied[sh] {
				t.Fatalf("poll %d: %s is both refused and applied", polls, sh)
			}
		}
		for sh := range body["adopted_from"].(map[string]any) {
			if !shards[sh] {
				t.Fatalf("poll %d: %s has a donor but is not in shards: the reply is torn", polls, sh)
			}
		}
	}
	if want := submitters*perSubmitter + submitters*perSubmitter/10; len(svc.Ledger().Shards) != want {
		t.Fatalf("%d shards admitted, want %d", len(svc.Ledger().Shards), want)
	}
	t.Logf("%d consistent polls", polls)
}

// TestStatsAndLedgerKeySets pins the JSON key sets of /v1/stats and
// /v1/ledger: the router, the benchmark and operators' dashboards read
// these names, and the counters now come from one struct.
func TestStatsAndLedgerKeySets(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) { c.WALDir = t.TempDir() })
	h := New(Config{Instance: "c0"}, svc).Handler()
	keys := func(m map[string]any) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	_, stats := get(t, h, "/v1/stats")
	for section, want := range map[string][]string{
		"": {"breaker", "checkpoint_failures", "checkpoint_short_circuited", "checkpoints", "draining",
			"duplicate_submissions", "handed_off", "handoff_captured", "handoff_requests", "handoffs_in",
			"adopted_shards", "instance", "loss_rate", "lost", "merge_failed", "merged",
			"overload_rejected", "queries", "queries_in_flight", "queries_shed", "queue", "samples",
			"samples_loss_reversed", "samples_lost", "sealed", "sketch", "submissions", "wal", "witness"},
		"wal": {"appended_bytes", "appends", "bytes_since_barrier", "last_sync_age_ms", "oldest_pending_age_ms",
			"pending_records", "replay_duration_ms", "replay_records", "rotations", "segment_seq", "segments",
			"stalled", "sync_errors", "syncs", "wedged"},
	} {
		got := stats
		if section != "" {
			got = stats[section].(map[string]any)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(keys(got), want) {
			t.Errorf("/v1/stats %q keys\n got %v\nwant %v", section, keys(got), want)
		}
	}
	_, ledger := get(t, h, "/v1/ledger")
	if want := []string{"adopted_from", "applied", "count", "instance", "refused", "shards"}; !reflect.DeepEqual(keys(ledger), want) {
		t.Errorf("/v1/ledger keys\n got %v\nwant %v", keys(ledger), want)
	}
}
