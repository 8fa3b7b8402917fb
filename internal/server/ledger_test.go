package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"profileme/internal/cluster"
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

// keyTree lists every key path under v, one per key: "wal.syncs",
// "sketch.latencies[].p50". Arrays contribute their elements' keys.
func keyTree(v any) []string {
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				seen[prefix+k] = true
				walk(prefix+k+".", sub)
			}
		case []any:
			for _, sub := range v {
				walk(strings.TrimSuffix(prefix, ".")+"[].", sub)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// instanceStatsTree is every key of a WAL-backed instance's /v1/stats.
var instanceStatsTree = []string{
	"adopted_shards",
	"breaker", "breaker.failures", "breaker.short_circuited", "breaker.state", "breaker.successes", "breaker.trips",
	"checkpoint_failures", "checkpoint_short_circuited", "checkpoints", "draining", "duplicate_submissions",
	"handed_off", "handoff_captured", "handoff_requests", "handoffs_in", "instance", "loss_rate", "lost",
	"merge_failed", "merged", "overload_rejected", "queries", "queries_in_flight", "queries_shed",
	"queue", "queue.accepted", "queue.capacity", "queue.depth", "queue.high_water", "queue.rejected",
	"samples", "samples_loss_reversed", "samples_lost", "sealed",
	"sketch", "sketch.epoch", "sketch.floor", "sketch.latencies", "sketch.latencies[].count",
	"sketch.latencies[].kind", "sketch.latencies[].p50", "sketch.latencies[].p90", "sketch.latencies[].p99",
	"sketch.latencies[].rel_error", "sketch.publishes", "sketch.sketch_n", "sketch.top_k", "sketch.tracked_pcs",
	"sketch.window_bucket_ms", "sketch.window_buckets", "sketch.window_horizon_ms",
	"submissions",
	"wal", "wal.appended_bytes", "wal.appends", "wal.bytes_since_barrier", "wal.last_sync_age_ms",
	"wal.oldest_pending_age_ms", "wal.pending_records", "wal.replay_duration_ms", "wal.replay_records",
	"wal.rotations", "wal.segment_seq", "wal.segments", "wal.stalled", "wal.sync_errors", "wal.syncs", "wal.wedged",
	"witness", "witness.entries", "witness.origins", "witness.pruned", "witness.refused", "witness.stored",
}

// TestStatsAndLedgerKeySets pins the JSON key trees of an instance's
// /v1/stats and /v1/ledger and of the router's /v1/stats over two
// instances: the router, the benchmark and operators' dashboards read
// these names, so a refactor of where a counter lives must not add,
// drop or rename one. The router's partial keys are pinned with both
// instances answering and with one gone.
func TestStatsAndLedgerKeySets(t *testing.T) {
	var instances []cluster.Instance
	var servers []*httptest.Server
	for _, id := range []string{"c0", "c1"} {
		svc := testService(t, func(c *ingest.Config) { c.WALDir = t.TempDir() })
		ts := httptest.NewServer(New(Config{Instance: id}, svc).Handler())
		t.Cleanup(ts.Close)
		instances = append(instances, cluster.Instance{ID: id, BaseURL: ts.URL})
		servers = append(servers, ts)
	}
	h := servers[0].Config.Handler
	_, stats := get(t, h, "/v1/stats")
	if got := keyTree(stats); !reflect.DeepEqual(got, instanceStatsTree) {
		t.Errorf("/v1/stats keys\n got %v\nwant %v", got, instanceStatsTree)
	}
	_, ledger := get(t, h, "/v1/ledger")
	if want := []string{"adopted_from", "applied", "count", "instance", "refused", "shards"}; !reflect.DeepEqual(keyTree(ledger), want) {
		t.Errorf("/v1/ledger keys\n got %v\nwant %v", keyTree(ledger), want)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{Instances: instances, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	routerTree := []string{"epoch",
		"fleet", "fleet.handoffs_in", "fleet.instances", "fleet.lost", "fleet.merged", "fleet.samples", "fleet.samples_lost",
		"instances", "instances.c0", "instances.c1", "instances_missing",
		"migration", "migration.active", "migration.completed", "partial",
		"router", "router.anti_entropy_resubmits", "router.anti_entropy_runs", "router.failovers", "router.hedge_wins",
		"router.hedges", "router.legs_failed", "router.partials_served", "router.submit_retries", "router.submits",
		"router.witness_failed", "router.witness_sent", "router.wrong_owner_conflicts"}
	for _, partial := range []bool{false, true} {
		want := routerTree
		if partial {
			servers[1].Close() // c1 stops answering: its leg goes missing
			want = []string{"missing"}
			for _, k := range routerTree {
				if k != "instances.c1" {
					want = append(want, k)
				}
			}
		}
		_, body := get(t, rt.Handler(), "/v1/stats")
		var got []string
		for _, k := range keyTree(body) {
			// Each answering instance's section is its own /v1/stats,
			// verbatim: pinned above, and checked whole below.
			if !strings.HasPrefix(k, "instances.c0.") && !strings.HasPrefix(k, "instances.c1.") {
				got = append(got, k)
			}
		}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("router /v1/stats keys (partial %v)\n got %v\nwant %v", partial, got, want)
		}
		for id, one := range body["instances"].(map[string]any) {
			if got := keyTree(one); !reflect.DeepEqual(got, instanceStatsTree) {
				t.Errorf("router /v1/stats instances.%s keys\n got %v\nwant %v", id, got, instanceStatsTree)
			}
		}
		if body["partial"] != partial {
			t.Errorf("router /v1/stats partial = %v, want %v", body["partial"], partial)
		}
	}
}
