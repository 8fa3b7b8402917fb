package ingest_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/server"
)

// serveTest answers one request on h.
func serveTest(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// exportDuringFsync parks req (a handoff or an adoption) inside its WAL
// fsync on a donor, asks the donor for its handoff export meanwhile, then
// lets the fsync finish. It returns req's answer and the decoded envelope.
func exportDuringFsync(t *testing.T, path string, body []byte) (*httptest.ResponseRecorder, ingest.Handoff) {
	t.Helper()
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := ingest.Config{QueueDepth: 8, Interval: 16, Width: 4, WALDir: filepath.Join(t.TempDir(), "wal")}
	ingest.SetWALFsync(&cfg, func(f *os.File) error {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	svc, err := ingest.NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseWAL()
	svc.Start()
	h := server.New(server.Config{Instance: "donor"}, svc).Handler()

	armed.Store(true)
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- serveTest(h, path, body) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never reached its fsync", path)
	}
	exported := make(chan *httptest.ResponseRecorder, 1)
	go func() { exported <- serveTest(h, "/v1/handoff/export", nil) }()
	time.Sleep(50 * time.Millisecond) // room for an export that does not wait
	close(release)
	rec, exp := <-held, <-exported
	if exp.Code != http.StatusOK {
		t.Fatalf("export: %d %s", exp.Code, exp.Body.String())
	}
	env, err := ingest.DecodeHandoff(exp.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rec, env
}

// peerEnvelope is a handoff envelope exported by a one-shard peer, with
// the captured samples it carries.
func peerEnvelope(t *testing.T) ([]byte, uint64) {
	t.Helper()
	svc, err := ingest.NewService(ingest.Config{QueueDepth: 8, Interval: 16, Width: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(server.Config{Instance: "peer"}, svc).Handler()
	body, err := ingest.EncodeSubmit("peer/s1", smallShard())
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveTest(h, "/v1/submit", body); rec.Code != http.StatusAccepted {
		t.Fatalf("peer submit: %d %s", rec.Code, rec.Body.String())
	}
	rec := serveTest(h, "/v1/handoff/export", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("peer export: %d %s", rec.Code, rec.Body.String())
	}
	c := svc.Aggregate().CountersSnapshot()
	return rec.Body.Bytes(), c.Samples + c.Lost
}

// TestExportWaitsForHandoffInFsync: a handoff parked in its WAL fsync
// while the donor exports either lands before the seal, and ships in the
// envelope, or is refused. An acknowledged handoff missing from the
// envelope would leave the fleet with the donor when it retires.
func TestExportWaitsForHandoffInFsync(t *testing.T) {
	body, captured := peerEnvelope(t)
	rec, env := exportDuringFsync(t, "/v1/handoff", body)
	shipped := env.DB.Samples() + env.DB.Lost()
	switch rec.Code {
	case http.StatusAccepted:
		if shipped != captured || !slices.Contains(env.Shards, "peer/s1") {
			t.Fatalf("handoff of %d captured samples acknowledged, envelope ships %d and shards %v", captured, shipped, env.Shards)
		}
	case http.StatusServiceUnavailable:
		if shipped != 0 {
			t.Fatalf("handoff refused, envelope ships %d captured samples", shipped)
		}
	default:
		t.Fatalf("handoff: %d %s", rec.Code, rec.Body.String())
	}
}

// TestExportWaitsForAdoptionInFsync: the same for an adoption — an
// acknowledged adoption's ids ride in the envelope, so the receiver keeps
// deduping their retries.
func TestExportWaitsForAdoptionInFsync(t *testing.T) {
	rec, env := exportDuringFsync(t, "/v1/ledger/adopt", []byte(`{"from":"peer","shards":["moved/a","moved/b"]}`))
	switch rec.Code {
	case http.StatusOK:
		if !slices.Contains(env.Shards, "moved/a") || !slices.Contains(env.Shards, "moved/b") {
			t.Fatalf("adoption acknowledged (%s), envelope shards %v", rec.Body.String(), env.Shards)
		}
	case http.StatusServiceUnavailable:
		if len(env.Shards) != 0 {
			t.Fatalf("adoption refused, envelope shards %v", env.Shards)
		}
	default:
		t.Fatalf("adopt: %d %s", rec.Code, rec.Body.String())
	}
}
