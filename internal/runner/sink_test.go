package runner

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/server"
)

func TestSubmitErrorTaxonomy(t *testing.T) {
	transient := []int{0, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusInternalServerError, http.StatusBadGateway}
	for _, status := range transient {
		se := &SubmitError{Status: status}
		if !se.Transient() {
			t.Errorf("status %d classified permanent, want transient", status)
		}
		if !transientErr(se) {
			t.Errorf("transientErr(%d) = false through errors.As", status)
		}
	}
	permanent := []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusRequestEntityTooLarge}
	for _, status := range permanent {
		se := &SubmitError{Status: status}
		if se.Transient() {
			t.Errorf("status %d classified transient, want permanent", status)
		}
		if transientErr(se) {
			t.Errorf("transientErr(%d) = true; retrying cannot help", status)
		}
	}
}

// fakeSink scripts per-shard outcomes: each Submit pops the next error
// from the shard's queue (empty queue = success), and keeps the body
// slice each attempt was handed.
type fakeSink struct {
	mu      sync.Mutex
	scripts map[string][]error
	got     map[string][][]byte
}

func newFakeSink() *fakeSink {
	return &fakeSink{scripts: make(map[string][]error), got: make(map[string][][]byte)}
}

func (s *fakeSink) Submit(ctx context.Context, shard string, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got[shard] = append(s.got[shard], body)
	if q := s.scripts[shard]; len(q) > 0 {
		err := q[0]
		s.scripts[shard] = q[1:]
		return err
	}
	return nil
}

func (s *fakeSink) calls(shard string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got[shard])
}

// TestFleetSubmitsEveryCompletedShard: with a healthy sink, each
// completed job is delivered exactly once and the report says so.
func TestFleetSubmitsEveryCompletedShard(t *testing.T) {
	sink := newFakeSink()
	cfg := testConfig(2)
	cfg.Sink = sink
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.ShardsSubmitted != 4 || rep.ShardsSubmitFailed != 0 {
		t.Fatalf("submitted %d failed %d, want 4/0", rep.ShardsSubmitted, rep.ShardsSubmitFailed)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if got := sink.calls(id); got != 1 {
			t.Fatalf("shard %s submitted %d times, want 1", id, got)
		}
	}
}

// TestFleetSubmitRetryTaxonomy: transient refusals (429/503) are retried
// within the attempt budget; a permanent refusal (409) is not retried,
// and neither failure mode fails the job itself.
func TestFleetSubmitRetryTaxonomy(t *testing.T) {
	sink := newFakeSink()
	// "flaky" recovers after two rounds of backpressure; "skewed" is
	// refused permanently; "dead" exhausts the budget on endless 503s.
	sink.scripts["flaky"] = []error{
		&SubmitError{Status: http.StatusTooManyRequests, Kind: "queue-full"},
		&SubmitError{Status: http.StatusServiceUnavailable, Kind: "draining"},
	}
	sink.scripts["skewed"] = []error{
		&SubmitError{Status: http.StatusConflict, Kind: "config-mismatch"},
	}
	sink.scripts["dead"] = []error{
		&SubmitError{Status: http.StatusServiceUnavailable},
		&SubmitError{Status: http.StatusServiceUnavailable},
		&SubmitError{Status: http.StatusServiceUnavailable},
		&SubmitError{Status: http.StatusServiceUnavailable},
	}
	cfg := testConfig(1)
	cfg.Sink = sink
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("flaky", "skewed", "dead"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	// Submission failures are degradation, never job failures.
	if rep.Completed != 3 || rep.DeadLettered != 0 {
		t.Fatalf("completed %d dead %d, want 3/0", rep.Completed, rep.DeadLettered)
	}
	if rep.ShardsSubmitted != 1 || rep.ShardsSubmitFailed != 2 {
		t.Fatalf("submitted %d failed %d, want 1/2", rep.ShardsSubmitted, rep.ShardsSubmitFailed)
	}
	if got := sink.calls("flaky"); got != 3 {
		t.Fatalf("flaky submitted %d times, want 3 (two backoffs then success)", got)
	}
	// One encode per shard, whatever its attempt count: every attempt is
	// handed the very same slice, and it decodes to the shard.
	first := sink.got["flaky"][0]
	for i, b := range sink.got["flaky"] {
		if len(b) == 0 || &b[0] != &first[0] || len(b) != len(first) {
			t.Fatalf("flaky attempt %d was handed a different body: the shard was encoded again", i+1)
		}
	}
	if sub, err := ingest.DecodeSubmit(first); err != nil || sub.Shard != "flaky" {
		t.Fatalf("flaky body decodes to %q, %v", sub.Shard, err)
	}
	if got := sink.calls("skewed"); got != 1 {
		t.Fatalf("skewed submitted %d times, want 1 (409 is permanent)", got)
	}
	if got := sink.calls("dead"); got != cfg.maxAttempts {
		t.Fatalf("dead submitted %d times, want the %d-attempt budget", got, cfg.maxAttempts)
	}
}

// TestHTTPSinkAgainstService is the integration slice: a real fleet with
// stub simulations delivering through HTTPSink to a real pmsimd handler,
// with the collector's aggregate ending up sample-for-sample equal to
// the fleet's local one.
func TestHTTPSinkAgainstService(t *testing.T) {
	svc, err := ingest.NewService(ingest.Config{
		QueueDepth: 16,
		Interval:   512,
		Width:      cpu.DefaultConfig().SustainedIssueWidth,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(server.New(server.Config{}, svc).Handler())
	defer ts.Close()

	cfg := testConfig(2)
	cfg.Sink = NewHTTPSink(ts.URL)
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("a", "b", "c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.ShardsSubmitted != 5 || rep.ShardsSubmitFailed != 0 {
		t.Fatalf("submitted %d failed %d, want 5/0", rep.ShardsSubmitted, rep.ShardsSubmitFailed)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	agg := svc.Aggregate()
	local := f.Profile()
	if agg.CountersSnapshot().Samples != local.Samples() || agg.CountersSnapshot().Lost != local.Lost() {
		t.Fatalf("collector aggregate %d/%d, local %d/%d",
			agg.CountersSnapshot().Samples, agg.CountersSnapshot().Lost, local.Samples(), local.Lost())
	}

	// A sink pointed at a draining collector reports the refusal as a
	// typed 503 SubmitError.
	late, err := ingest.EncodeSubmit("late", profile.NewDB(512, 0, cpu.DefaultConfig().SustainedIssueWidth))
	if err != nil {
		t.Fatal(err)
	}
	err = cfg.Sink.Submit(context.Background(), "late", late)
	var se *SubmitError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining collector: %v, want 503 SubmitError", err)
	}
	if se.Kind != "draining" {
		t.Fatalf("kind %q, want draining", se.Kind)
	}

	// A sink pointed at nothing reports a transient transport failure.
	downed := NewHTTPSink("http://127.0.0.1:1")
	err = downed.Submit(context.Background(), "late", late)
	if !errors.As(err, &se) || se.Status != 0 || !se.Transient() {
		t.Fatalf("unreachable collector: %v, want transient transport SubmitError", err)
	}
}

// TestHTTPSinkTransportFailover: only transport failures (the request
// never completed) move the sink to the next BaseURL — within the same
// Submit call, and sticky for the calls after it. Considered refusals
// (429/503/4xx) are the collector's admission policy and must stay with
// the endpoint that issued them.
func TestHTTPSinkTransportFailover(t *testing.T) {
	// The handlers below never decode: any bytes stand in for a shard.
	body := []byte(`{"shard":"x"}`)
	accept := func(hits *int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			*hits++
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"shard":"x"}`))
		})
	}

	// Primary dies before the first submit; the fallback answers.
	var fallbackHits int
	primary := httptest.NewServer(http.NotFoundHandler())
	deadURL := primary.URL
	primary.Close()
	fallback := httptest.NewServer(accept(&fallbackHits))
	defer fallback.Close()

	sink := NewHTTPSink(deadURL, fallback.URL).(*httpSink)
	if err := sink.Submit(context.Background(), "a", body); err != nil {
		t.Fatalf("submit with live fallback: %v", err)
	}
	if fallbackHits != 1 {
		t.Fatalf("fallback served %d submits, want 1", fallbackHits)
	}
	// Sticky: the next submit goes straight to the endpoint that worked
	// instead of re-dialing the dead primary every call.
	if err := sink.Submit(context.Background(), "b", body); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if fallbackHits != 2 {
		t.Fatalf("fallback served %d submits after sticky failover, want 2", fallbackHits)
	}
	sink.mu.Lock()
	current := sink.current
	sink.mu.Unlock()
	if current != 1 {
		t.Fatalf("sink current endpoint %d, want 1 (the fallback)", current)
	}

	// A considered refusal is returned to the caller, not failed over:
	// the healthy fallback must never see the shard.
	var healthyHits int
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full","kind":"queue-full"}`))
	}))
	defer refusing.Close()
	healthy := httptest.NewServer(accept(&healthyHits))
	defer healthy.Close()

	refused := NewHTTPSink(refusing.URL, healthy.URL)
	err := refused.Submit(context.Background(), "c", body)
	var se *SubmitError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || se.Kind != "queue-full" {
		t.Fatalf("backpressured submit: %v, want 429 queue-full SubmitError", err)
	}
	if healthyHits != 0 {
		t.Fatalf("429 backpressure failed over to the fallback (%d hits); refusals must stick", healthyHits)
	}

	// Every endpoint unreachable: the transport error surfaces as
	// transient, so the fleet's backoff loop retries the whole list.
	allDead := NewHTTPSink(deadURL, "http://127.0.0.1:1")
	err = allDead.Submit(context.Background(), "d", body)
	if !errors.As(err, &se) || se.Status != 0 || !se.Transient() {
		t.Fatalf("all endpoints dead: %v, want transient transport SubmitError", err)
	}
}
