package ingest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/cluster"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/server"
)

// readinessTier is one instance whose WAL fsyncs go through a test
// seam, behind a real server, and a real router over it.
type readinessTier struct {
	svc    *ingest.Service
	inst   string // instance base URL
	rt     *cluster.Router
	router string // router base URL
}

func newReadinessTier(t *testing.T, fsync func(*os.File) error) *readinessTier {
	t.Helper()
	cfg := ingest.Config{
		QueueDepth:    16,
		Interval:      16,
		Width:         4,
		WALDir:        filepath.Join(t.TempDir(), "wal"),
		WALStallAfter: 20 * time.Millisecond,
	}
	ingest.SetWALFsync(&cfg, fsync)
	svc, err := ingest.NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	inst := httptest.NewServer(server.New(server.Config{Instance: "c0"}, svc).Handler())
	t.Cleanup(inst.Close)
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Instances:  []cluster.Instance{{ID: "c0", BaseURL: inst.URL}},
		HedgeDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	return &readinessTier{svc: svc, inst: inst.URL, rt: rt, router: router.URL}
}

// get returns a GET's status and body. It reports failures with Errorf,
// so it is safe off the test goroutine.
func get(t *testing.T, url string) (int, []byte) {
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// kind returns an error body's kind ("" if none).
func kind(body []byte) string {
	var e struct {
		Kind string `json:"kind"`
	}
	json.Unmarshal(body, &e)
	return e.Kind
}

// state probes the instance and returns what the router's /readyz says
// of it.
func (tr *readinessTier) state(t *testing.T) string {
	t.Helper()
	tr.rt.Probe(context.Background())
	_, body := get(t, tr.router+"/readyz")
	var r struct {
		Instances map[string]string `json:"instances"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("router /readyz %s: %v", body, err)
	}
	return r.Instances["c0"]
}

// smallShard is eight retired samples over four PCs.
func smallShard() *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < 8; i++ {
		r := core.Record{PC: 0x400 + 8*uint64(i%4), LoadComplete: -1, Events: core.EvRetired}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		db.Add(core.Sample{First: r})
	}
	return db
}

// submit posts one small shard straight to the instance and returns the
// status and error kind; safe off the test goroutine.
func (tr *readinessTier) submit(t *testing.T, shard string) (int, string) {
	body, err := ingest.EncodeSubmit(shard, smallShard())
	if err != nil {
		t.Errorf("encode: %v", err)
		return 0, ""
	}
	resp, err := http.Post(tr.inst+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("submit: %v", err)
		return 0, ""
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, kind(raw)
}

// TestProbeMarksWALStalledDraining: a submission whose fsync hangs, with
// nothing else staged, makes the instance answer 503 wal-stalled on
// /readyz, and the router's probe degrades it to draining so new
// submissions steer to the successor. When the verdict lands the submit
// is acknowledged and the probe readmits the instance.
func TestProbeMarksWALStalledDraining(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	tr := newReadinessTier(t, func(f *os.File) error {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return f.Sync()
	})
	unhold := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { unhold(); tr.svc.CloseWAL() })
	if st := tr.state(t); st != "healthy" {
		t.Fatalf("state before the stall: %q", st)
	}

	armed.Store(true)
	done := make(chan int, 1)
	go func() { status, _ := tr.submit(t, "stall/s0"); done <- status }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("submit never reached fsync")
	}
	deadline := time.Now().Add(2 * time.Second)
	for tr.state(t) != "draining" {
		if time.Now().After(deadline) {
			status, body := get(t, tr.inst+"/readyz")
			t.Fatalf("fsync held 2s: probe never marked the instance draining; instance /readyz %d %s", status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, body := get(t, tr.inst+"/readyz"); status != http.StatusServiceUnavailable || kind(body) != "wal-stalled" {
		t.Fatalf("instance /readyz %d %s, want 503 wal-stalled", status, body)
	}

	unhold()
	if status := <-done; status != http.StatusAccepted {
		t.Fatalf("submit after the verdict: status %d, want 202", status)
	}
	if st := tr.state(t); st != "healthy" {
		t.Fatalf("state after the verdict: %q, want healthy", st)
	}
}

// TestProbeMarksWALFailedDraining: an fsync that returns EIO wedges the
// WAL. The submit it covered is refused 503 {"kind":"wal"}, /readyz
// answers 503 wal-failed, and the router's probe marks the instance
// draining: it needs a restart with replay before it may take traffic.
func TestProbeMarksWALFailedDraining(t *testing.T) {
	var failing atomic.Bool
	tr := newReadinessTier(t, func(f *os.File) error {
		if failing.Load() {
			return errors.New("injected fsync EIO")
		}
		return f.Sync()
	})
	t.Cleanup(func() { tr.svc.CloseWAL() })
	if st := tr.state(t); st != "healthy" {
		t.Fatalf("state before the failure: %q", st)
	}

	failing.Store(true)
	if status, k := tr.submit(t, "eio/s0"); status != http.StatusServiceUnavailable || k != "wal" {
		t.Fatalf("submit through a failed fsync: %d %q, want 503 wal", status, k)
	}
	if status, body := get(t, tr.inst+"/readyz"); status != http.StatusServiceUnavailable || kind(body) != "wal-failed" {
		t.Fatalf("instance /readyz %d %s, want 503 wal-failed", status, body)
	}
	if st := tr.state(t); st != "draining" {
		t.Fatalf("probe left the wedged instance %q, want draining", st)
	}
}
