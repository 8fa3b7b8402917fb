package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/ingest"
)

// svcDigest returns the deterministic serialized bytes of a service's
// aggregate (SafeDB.Save is canonical: same counters -> same bytes), so
// two aggregates can be compared for exact equality.
func svcDigest(t *testing.T, svc *ingest.Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Aggregate().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func flush(t *testing.T, svc *ingest.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestWitnessDiskLossRebuild is the acceptance test for witness
// replication: an instance that loses EVERYTHING (disk, WAL, memory) is
// replaced by an empty process under the same ring identity, and one
// anti-entropy sweep rebuilds it purely from the witness copies its
// peers hold — reconverging to the exact aggregate bytes the victim
// held before the loss.
func TestWitnessDiskLossRebuild(t *testing.T) {
	ids := []string{"c0", "c1", "c2"}
	instances := make(map[string]*tierInstance, len(ids))
	cfg := RouterConfig{FailureThreshold: 2, HedgeDelay: -1, Witness: true, WitnessSync: true}
	for _, id := range ids {
		in := newTierInstance(t, id, 64)
		instances[id] = in
		cfg.Instances = append(cfg.Instances, Instance{ID: id, BaseURL: in.ts.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Submit distinct shards; remember which instance owns which, and the
	// total captured samples for the fleet conservation check.
	const shards = 18
	byOwner := make(map[string][]string)
	var captured uint64
	for i := 0; i < shards; i++ {
		name := shardName(i)
		db := synthShard(uint64(i)+1, 40+i)
		captured += db.Samples() + db.Lost()
		resp := submitVia(t, front.URL, name, db)
		if resp.status != 202 {
			t.Fatalf("submit %s: status %d", name, resp.status)
		}
		byOwner[resp.Instance] = append(byOwner[resp.Instance], name)
	}
	rt.WitnessFlush()

	// The witness ledgers must carry each shard's real captured count
	// (copied from the owner's 202 body) — the conservation audit reads
	// these numbers, so an omitted field would zero the whole check.
	var witnessed uint64
	for _, in := range instances {
		status, ledger := getJSON(t, in.ts.URL+"/v1/witness/ledger")
		if status != 200 {
			t.Fatalf("witness ledger on %s: status %d", in.id, status)
		}
		for origin, rows := range ledger["witness"].(map[string]any) {
			for _, r := range rows.([]any) {
				row := r.(map[string]any)
				if row["captured"].(float64) == 0 {
					t.Fatalf("witness ledger for %s/%s has captured=0", origin, row["shard"])
				}
				witnessed += uint64(row["captured"].(float64))
			}
		}
	}
	if witnessed != captured {
		t.Fatalf("witness ledgers hold %d captured samples, want %d", witnessed, captured)
	}

	// Pick a victim that owns at least one shard and snapshot its exact
	// aggregate bytes.
	var victim string
	for id, owned := range byOwner {
		if len(owned) > 0 {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no instance accepted any shard")
	}
	flush(t, instances[victim].svc)
	wantDigest := svcDigest(t, instances[victim].svc)
	wantShards := len(byOwner[victim])

	// Total loss: the process, its memory, and its (absent here) disk all
	// go away; a brand-new empty service takes over the ring identity.
	instances[victim].ts.Close()
	freshSvc, err := ingest.NewService(ingest.Config{QueueDepth: 64, Interval: 16, Width: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	freshSvc.Start()
	freshTS := serveInstance(t, victim, freshSvc).ts
	rt.SetInstance(victim, freshTS.URL)

	rep := rt.AntiEntropy(context.Background())
	if rep.Resubmitted != wantShards {
		t.Fatalf("anti-entropy resubmitted %d shards to %s, want %d (report %+v)",
			rep.Resubmitted, victim, wantShards, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("anti-entropy reported %d errors: %+v", rep.Errors, rep)
	}

	// The rebuilt instance must hold bit-identical aggregate bytes.
	flush(t, freshSvc)
	gotDigest := svcDigest(t, freshSvc)
	if !bytes.Equal(gotDigest, wantDigest) {
		t.Fatalf("rebuilt aggregate diverged: %d bytes vs %d bytes (samples %d vs %d)",
			len(gotDigest), len(wantDigest), freshSvc.Aggregate().CountersSnapshot().Samples, instances[victim].svc.Aggregate().CountersSnapshot().Samples)
	}

	// Fleet-wide conservation survives the loss+rebuild: every captured
	// sample is a Sample or accounted Lost exactly once across the tier.
	var total uint64
	for id, in := range instances {
		svc := in.svc
		if id == victim {
			svc = freshSvc
		}
		flush(t, svc)
		c := svc.Aggregate().CountersSnapshot()
		total += c.Samples + c.Lost
	}
	if total != captured {
		t.Fatalf("fleet conservation violated after rebuild: samples+lost %d, want %d", total, captured)
	}

	// The sweep is idempotent and pruning worked: a second sweep finds a
	// converged tier with nothing witnessed against the victim.
	rep2 := rt.AntiEntropy(context.Background())
	if rep2.Resubmitted != 0 || rep2.Errors != 0 {
		t.Fatalf("second sweep not idempotent: %+v", rep2)
	}
	for id, in := range instances {
		url := in.ts.URL
		if id == victim {
			url = freshTS.URL
		}
		status, m := getJSON(t, url+"/v1/witness/ledger")
		if status != 200 {
			t.Fatalf("witness ledger on %s: status %d", id, status)
		}
		if w, ok := m["witness"].(map[string]any); ok && len(w) != 0 {
			t.Fatalf("witness copies survived reconciliation on %s: %v", id, w)
		}
	}
}

func shardName(i int) string {
	return "wit/s" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

// TestResubmitWholeWitnessCopy: under a submission bound above 8 MiB,
// anti-entropy fetches a 9 MiB witness copy whole and the owner receives
// every byte of it.
func TestResubmitWholeWitnessCopy(t *testing.T) {
	copyBody := bytes.Repeat([]byte("w"), 9<<20)
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/witness/ledger":
			io.WriteString(w, `{"witness":{"owner":[{"shard":"big","captured":1}]}}`)
		case "/v1/witness/fetch":
			w.Write(copyBody)
		case "/v1/witness/prune":
			io.WriteString(w, `{"pruned":1}`)
		default:
			io.WriteString(w, `{"shards":[]}`)
		}
	}))
	defer holder.Close()
	var received atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/submit":
			n, _ := io.Copy(io.Discard, r.Body)
			received.Store(n)
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{}`)
		case "/v1/witness/ledger":
			io.WriteString(w, `{"witness":{}}`)
		default:
			io.WriteString(w, `{"shards":[]}`)
		}
	}))
	defer owner.Close()
	rt, err := NewRouter(RouterConfig{
		Instances:    []Instance{{ID: "holder", BaseURL: holder.URL}, {ID: "owner", BaseURL: owner.URL}},
		MaxBodyBytes: 16 << 20,
		HedgeDelay:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.AntiEntropy(context.Background())
	if got := received.Load(); got != int64(len(copyBody)) || rep.Resubmitted != 1 || rep.Errors != 0 {
		t.Fatalf("owner received %d of the copy's %d bytes (report %+v); want all of them, resubmitted once", got, len(copyBody), rep)
	}
}
