package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// testShard builds a shard database compatible with the test service
// configuration (interval 16, width 4).
func testShard(seed uint64, samples int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < samples; i++ {
		r := core.Record{PC: 0x400 + 8*((seed+uint64(i)*3)%11), LoadComplete: -1}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		r.Events = core.EvRetired
		if i%4 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	return db
}

func testService(t *testing.T, mutate func(*ingest.Config)) *ingest.Service {
	t.Helper()
	cfg := ingest.Config{
		QueueDepth:     4,
		Interval:       16,
		Width:          4,
		CheckpointPath: filepath.Join(t.TempDir(), "agg.db"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := ingest.NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// postSubmit encodes and POSTs one shard; returns status and decoded body.
func postSubmit(t *testing.T, h http.Handler, shard string, db *profile.DB) (int, map[string]any) {
	t.Helper()
	body, err := ingest.EncodeSubmit(shard, db)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, h, "/v1/submit", body)
}

func post(t *testing.T, h http.Handler, path string, body []byte) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, decodeBody(t, rec)
}

func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, decodeBody(t, rec)
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return map[string]any{"_text": rec.Body.String()}
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("response %d not JSON: %v\n%s", rec.Code, err, rec.Body.String())
	}
	return m
}

func wantKind(t *testing.T, body map[string]any, kind string) {
	t.Helper()
	if got, _ := body["kind"].(string); got != kind {
		t.Fatalf("error kind %q, want %q (body %v)", got, kind, body)
	}
}

func TestSubmitAcceptedThenQueryable(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()

	for i := 0; i < 3; i++ {
		status, body := postSubmit(t, h, fmt.Sprintf("bench/s%03d", i), testShard(uint64(i), 20))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d body %v", i, status, body)
		}
	}
	// Drain starts the aggregator (never started here) and flushes the backlog.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, h, "/v1/hotpcs?n=5")
	if status != http.StatusOK {
		t.Fatalf("hotpcs: %d %v", status, body)
	}
	if got := body["samples"].(float64); got != 60 {
		t.Fatalf("hotpcs samples %v, want 60", got)
	}
	pcs := body["pcs"].([]any)
	if len(pcs) != 5 {
		t.Fatalf("hotpcs returned %d rows, want 5", len(pcs))
	}
	top := pcs[0].(map[string]any)
	for _, key := range []string{"pc", "samples", "est_count", "retired_pct", "dcache_miss_pct"} {
		if _, ok := top[key]; !ok {
			t.Fatalf("hotpcs row missing %q: %v", key, top)
		}
	}

	// Estimate for the hottest PC, with and without an event filter.
	pc := top["pc"].(string)
	status, body = get(t, h, "/v1/estimate?pc="+pc)
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %v", status, body)
	}
	if _, ok := body["est_event_counts"].(map[string]any); !ok {
		t.Fatalf("estimate missing est_event_counts: %v", body)
	}
	status, body = get(t, h, "/v1/estimate?pc="+pc+"&event=dcache-miss")
	if status != http.StatusOK || body["event"] != "dcache-miss" {
		t.Fatalf("estimate with event: %d %v", status, body)
	}

}

// misfitImages are CRC-valid PMDB v2 images of testShard(0, 1), whose
// one row is PC 0x400, that carry a pair metric: "named" names one in
// its header, "row" gives the row one count (of 0). Every writer
// writes both lengths as zero.
func misfitImages(t *testing.T) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testShard(0, 1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	payload := img[frame.HeaderLen+8 : len(img)-4]
	// The header is S (8 bytes), then W C TNear RetainAddrs and samples
	// pairs lost corruptRejected, a byte each here, then the zero name
	// count and the row count 1. The row ends with its zero pair-metric
	// length and zero address count.
	const names = 16
	if payload[names] != 0 || payload[names+1] != 1 || !bytes.HasSuffix(payload, []byte{0, 0}) {
		t.Fatalf("testShard(0, 1)'s image is not laid out as this test expects: % x", payload)
	}
	named := append(append(bytes.Clone(payload[:names]), 1, 4, 'n', 'e', 'a', 'r'), payload[names+1:]...)
	row := append(bytes.Clone(payload[:len(payload)-2]), 1, 0, 0)
	out := make(map[string][]byte)
	for what, p := range map[string][]byte{"named": named, "row": row} {
		buf.Reset()
		if err := frame.WriteEnvelopeParts(&buf, "PMDB", 2, p); err != nil {
			t.Fatal(err)
		}
		out[what] = bytes.Clone(buf.Bytes())
	}
	return out
}

// TestSubmitMisfitRowsRejected: a shard whose image carries a pair
// metric is a corrupt payload, answered 400 and never admitted, and
// LoadDB refuses it as ErrCorrupt. Two shards that gave one PC
// pair-metric rows of lengths 1 and 3 used to be admitted and then panic
// the merge goroutine — and the WAL would replay them into the same
// panic.
func TestSubmitMisfitRowsRejected(t *testing.T) {
	svc := testService(t, nil)
	svc.Start()
	defer svc.Drain(context.Background())
	h := New(Config{}, svc).Handler()
	for what, img := range misfitImages(t) {
		if _, err := profile.LoadDB(bytes.NewReader(img)); !errors.Is(err, profile.ErrCorrupt) {
			t.Fatalf("%s: LoadDB: %v, want ErrCorrupt", what, err)
		}
		body, err := json.Marshal(struct {
			Shard   string `json:"shard"`
			Profile []byte `json:"profile"`
		}{"misfit/" + what, img})
		if err != nil {
			t.Fatal(err)
		}
		status, resp := post(t, h, "/v1/submit", body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: %d %v, want 400", what, status, resp)
		}
		wantKind(t, resp, "corrupt")
	}
	if status, body := postSubmit(t, h, "sane", testShard(1, 5)); status != http.StatusAccepted {
		t.Fatalf("a sane shard after the misfits: %d %v", status, body)
	}
	if err := svc.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.Aggregate().CountersSnapshot().Samples; got != 5 {
		t.Fatalf("aggregate holds %d samples, want the sane shard's 5", got)
	}
}

func TestSubmitTypedRejections(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()

	// 405: wrong method.
	if status, body := get(t, h, "/v1/submit"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit: %d %v", status, body)
	}

	// 413: body over the limit, refused before the decoder runs (separate
	// handler with a tiny limit so valid submissions elsewhere still fit).
	tiny := New(Config{MaxBodyBytes: 512}, svc).Handler()
	status, body := post(t, tiny, "/v1/submit", bytes.Repeat([]byte("x"), 2048))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: %d %v", status, body)
	}
	wantKind(t, body, "oversized")

	// 400 malformed: not a submission envelope.
	status, body = post(t, h, "/v1/submit", []byte(`{"shard":123}`))
	if status != http.StatusBadRequest {
		t.Fatalf("malformed: %d %v", status, body)
	}
	wantKind(t, body, "malformed")

	// 400 corrupt: valid envelope, payload CRC broken.
	valid, err := ingest.EncodeSubmit("s", testShard(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Shard   string `json:"shard"`
		Profile []byte `json:"profile"`
	}
	if err := json.Unmarshal(valid, &env); err != nil {
		t.Fatal(err)
	}
	env.Profile[len(env.Profile)-1] ^= 0xff
	corrupt, _ := json.Marshal(env)
	status, body = post(t, h, "/v1/submit", corrupt)
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt: %d %v", status, body)
	}
	if k := body["kind"].(string); k != "corrupt" && k != "truncated" {
		t.Fatalf("corrupt payload kind %q", k)
	}

	// 409: sampling configuration that can never merge; NOT accounted as loss.
	status, body = postSubmit(t, h, "skew", profile.NewDB(999, 0, 4))
	if status != http.StatusConflict {
		t.Fatalf("mismatch: %d %v", status, body)
	}
	wantKind(t, body, "config-mismatch")
	if lost := svc.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("4xx refusals recorded %d lost samples; only admitted-population losses count", lost)
	}
}

// TestSubmitDuplicateIdempotent: resubmitting an accepted shard — what
// an honest client does when the 202 response is lost and its transport
// error classifies as transient — acknowledges without re-merging.
func TestSubmitDuplicateIdempotent(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()
	db := testShard(1, 10)

	status, body := postSubmit(t, h, "bench/s001", db)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", status, body)
	}
	status, body = postSubmit(t, h, "bench/s001", db)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit: %d %v, want 202", status, body)
	}
	if dup, _ := body["duplicate"].(bool); !dup {
		t.Fatalf("resubmit not flagged duplicate: %v", body)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := svc.Aggregate().CountersSnapshot()
	if c.Samples != db.Samples() || c.Lost != 0 {
		t.Fatalf("duplicate double-merged: samples %d lost %d, want %d/0", c.Samples, c.Lost, db.Samples())
	}
}

func TestSubmitBackpressureAndDrain(t *testing.T) {
	svc := testService(t, nil) // queue depth 4, aggregator not started
	h := New(Config{}, svc).Handler()

	// Fill the queue, then hit the 429 wall; refused samples become loss.
	var wantLost uint64
	for i := 0; i < 6; i++ {
		db := testShard(uint64(i), 10)
		status, body := postSubmit(t, h, fmt.Sprintf("s%d", i), db)
		switch {
		case i < 4 && status != http.StatusAccepted:
			t.Fatalf("submit %d: %d %v", i, status, body)
		case i >= 4:
			if status != http.StatusTooManyRequests {
				t.Fatalf("submit %d: %d %v, want 429", i, status, body)
			}
			wantKind(t, body, "queue-full")
			wantLost += db.Samples()
		}
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != wantLost {
		t.Fatalf("lost %d after 429s, want %d", got, wantLost)
	}

	// Draining: submissions get 503 and are still accounted.
	svc.BeginDrain()
	db := testShard(9, 10)
	status, body := postSubmit(t, h, "late", db)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d %v", status, body)
	}
	wantKind(t, body, "draining")
	wantLost += db.Samples()
	if got := svc.Aggregate().CountersSnapshot().Lost; got != wantLost {
		t.Fatalf("lost %d after draining 503, want %d", got, wantLost)
	}
}

// TestHandoffBodyBound: a handoff body — a donor's whole aggregate — may
// be eight times MaxBodyBytes. One byte over is refused 413 before the
// decoder runs; a body at the bound reaches it (garbage, so 400).
func TestHandoffBodyBound(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{MaxBodyBytes: 512}, svc).Handler()

	status, body := post(t, h, "/v1/handoff", bytes.Repeat([]byte("x"), 8*512+1))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("handoff one byte over the bound: %d %v", status, body)
	}
	wantKind(t, body, "oversized")

	status, body = post(t, h, "/v1/handoff", bytes.Repeat([]byte("x"), 8*512))
	if status != http.StatusBadRequest || body["kind"] == "oversized" {
		t.Fatalf("handoff at the bound: %d %v, want 400 from the decoder", status, body)
	}
}

// TestExportWithoutInstanceID: an envelope names its donor, so an
// instance started without an id must refuse the export before sealing
// — a typed 409, not a 500 — and keep admitting shards. Sealed first, it
// would refuse every submission until a restart.
func TestExportWithoutInstanceID(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{Instance: ""}, svc).Handler()
	for i := 0; i < 2; i++ { // the retry a router makes answers the same
		status, body := post(t, h, "/v1/handoff/export", nil)
		if status != http.StatusConflict {
			t.Fatalf("export %d without an instance id: %d %v, want 409", i, status, body)
		}
		wantKind(t, body, "no-instance")
	}
	if status, body := postSubmit(t, h, "after/s0", testShard(0, 5)); status != http.StatusAccepted {
		t.Fatalf("submit after the refused export: %d %v, want 202", status, body)
	}
}

func TestRetryAfterHeader(t *testing.T) {
	svc := testService(t, func(c *ingest.Config) { c.QueueDepth = 1 })
	srv := New(Config{}, svc)
	h := srv.Handler()
	postSubmit(t, h, "fill", testShard(0, 5))

	body, _ := ingest.EncodeSubmit("over", testShard(1, 5))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want 1", got)
	}
}

func TestQuerySheddingAboveHighWater(t *testing.T) {
	svc := testService(t, nil)
	srv := New(Config{MaxQueries: 2}, svc)
	h := srv.Handler()

	// Saturate the in-flight counter directly: the shed decision is the
	// unit under test, not goroutine scheduling.
	srv.inFlight.Add(2)
	status, body := get(t, h, "/v1/hotpcs")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated query: %d %v", status, body)
	}
	wantKind(t, body, "overloaded")
	srv.inFlight.Add(-2)

	if status, body := get(t, h, "/v1/hotpcs"); status != http.StatusOK {
		t.Fatalf("query after load cleared: %d %v", status, body)
	}
	if _, st := get(t, h, "/v1/stats"); st["queries_shed"] != 1.0 || st["queries"] != 2.0 {
		t.Fatalf("queries_shed %v of %v queries, want 1 of 2", st["queries_shed"], st["queries"])
	}
}

func TestQueryDeadline504(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{QueryDeadline: time.Nanosecond}, svc).Handler()
	time.Sleep(time.Millisecond) // let the 1ns deadline definitely expire
	status, body := get(t, h, "/v1/hotpcs")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %v", status, body)
	}
	wantKind(t, body, "deadline")
}

func TestQueryParamValidation(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()
	for _, path := range []string{
		"/v1/hotpcs?n=0", "/v1/hotpcs?n=headache", "/v1/hotpcs?n=100000",
		"/v1/estimate", "/v1/estimate?pc=zzz",
	} {
		if status, body := get(t, h, path); status != http.StatusBadRequest {
			t.Fatalf("%s: %d %v, want 400", path, status, body)
		}
	}
	if status, body := get(t, h, "/v1/estimate?pc=0xdead"); status != http.StatusNotFound {
		t.Fatalf("unknown pc: %d %v, want 404", status, body)
	}
	// Unknown event name on a real PC.
	postSubmit(t, h, "s", testShard(0, 8))
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	pc := fmt.Sprintf("%#x", svc.Aggregate().HotPCs(1)[0].PC)
	if status, body := get(t, h, "/v1/estimate?pc="+pc+"&event=nonsense"); status != http.StatusBadRequest {
		t.Fatalf("unknown event: %d %v, want 400", status, body)
	}
}

func TestReadyzFlipsOnDrainAndBreaker(t *testing.T) {
	// A checkpoint path inside a directory that doesn't exist makes every
	// persist fail; threshold 1 opens the breaker on the first one.
	svc := testService(t, func(c *ingest.Config) {
		c.CheckpointPath = filepath.Join(t.TempDir(), "missing-dir", "agg.db")
		c.BreakerThreshold = 1
		c.BreakerCooldown = time.Hour
	})
	h := New(Config{}, svc).Handler()

	if status, body := get(t, h, "/readyz"); status != http.StatusOK {
		t.Fatalf("fresh readyz: %d %v", status, body)
	}
	if status, _ := get(t, h, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}

	// One merged submission → one failed checkpoint → breaker open.
	postSubmit(t, h, "s", testShard(0, 5))
	svc.Start()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Breaker.State != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	status, body := get(t, h, "/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open readyz: %d %v", status, body)
	}
	wantKind(t, body, "breaker-open")

	// Drain outranks breaker state in the readiness answer.
	svc.BeginDrain()
	status, body = get(t, h, "/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d %v", status, body)
	}
	wantKind(t, body, "draining")
	// healthz stays green: the process is alive and draining on purpose.
	if status, _ := get(t, h, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during drain: %d", status)
	}
}

func TestStatsEndpoint(t *testing.T) {
	svc := testService(t, nil)
	h := New(Config{}, svc).Handler()
	postSubmit(t, h, "a", testShard(1, 10))
	get(t, h, "/v1/hotpcs")

	status, body := get(t, h, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %v", status, body)
	}
	if got := body["submissions"].(float64); got != 1 {
		t.Fatalf("submissions %v, want 1", got)
	}
	if got := body["queries"].(float64); got != 1 {
		t.Fatalf("queries %v, want 1", got)
	}
	if _, ok := body["queue"].(map[string]any); !ok {
		t.Fatalf("stats missing queue block: %v", body)
	}
	if _, ok := body["breaker"].(map[string]any); !ok {
		t.Fatalf("stats missing breaker block: %v", body)
	}
}
