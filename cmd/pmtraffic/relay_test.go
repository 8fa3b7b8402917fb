package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/runner"
	"profileme/internal/server"
	"profileme/internal/traffic"
)

// collector is one fresh in-process pmsimd: service + HTTP edge.
type collector struct {
	svc *ingest.Service
	url *url.URL
}

func newCollector(t *testing.T, interval float64) *collector {
	t.Helper()
	svc, err := ingest.NewService(ingest.Config{
		QueueDepth: 4,
		Interval:   interval,
		Width:      cpu.DefaultConfig().SustainedIssueWidth,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(server.New(server.Config{Instance: "c0"}, svc).Handler())
	t.Cleanup(ts.Close)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return &collector{svc: svc, url: u}
}

// aggregateBytes drains the collector and serializes its aggregate.
func (c *collector) aggregateBytes(t *testing.T) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.svc.Aggregate().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRelayCapturesReplayableOfferedLoad drives the one live capture
// point end to end: submissions → relay → collector, with one damaged
// body and one duplicate in the stream. The upstream's 400 is relayed
// and the damaged body stays out of the trace (a hook that recorded it
// would leave a trace on which replay stops at that record, the good
// shards behind it never delivered); the duplicate is offered load and
// is recorded; and the captured trace replays into a fresh collector
// with nothing failed and the same aggregate bytes.
func TestRelayCapturesReplayableOfferedLoad(t *testing.T) {
	sp, err := traffic.ParseSpec([]byte(`{"version":1,"seed":42,"duration_s":10,"interval":64,
		"cohorts":[{"name":"steady","bench":"compress","scale":20000,"shards":2,"base_rate":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	pools, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	good := pools["steady"]

	first := newCollector(t, sp.Interval)
	var trace bytes.Buffer
	w, err := traffic.NewWriter(&trace, traffic.Meta{Source: "pmtraffic record"})
	if err != nil {
		t.Fatal(err)
	}
	cw := traffic.NewCaptureWriter(w)
	relay := httptest.NewServer(relayHandler(first.url, cw, 8<<20))
	defer relay.Close()

	ctx := context.Background()
	sink := runner.NewHTTPSink(relay.URL)
	var se *runner.SubmitError
	if err := sink.Submit(ctx, good[0].Shard, good[0].Body); err != nil {
		t.Fatal(err)
	}
	// Well-formed JSON around a profile that is not one: the router's old
	// hook (anything with a shard key) recorded this body.
	err = sink.Submit(ctx, "bad/s0", []byte(`{"shard":"bad/s0","profile":"AAAA"}`))
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Kind == "" {
		t.Fatalf("damaged body through the relay: %v, want the collector's typed 400", err)
	}
	if err := sink.Submit(ctx, good[1].Shard, good[1].Body); err != nil {
		t.Fatal(err)
	}
	if err := sink.Submit(ctx, good[0].Shard, good[0].Body); err != nil {
		t.Fatalf("duplicate through the relay: %v", err)
	}
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := traffic.ReadAll(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := []traffic.Payload{good[0], good[1], good[0]}
	if len(recs) != len(want) {
		t.Fatalf("trace holds %d records, want %d (two shards and the duplicate, not the damaged body)", len(recs), len(want))
	}
	for i, p := range want {
		if recs[i].Shard != p.Shard || !bytes.Equal(recs[i].Body, p.Body) {
			t.Fatalf("record %d is %s, want %s verbatim", i, recs[i].Shard, p.Shard)
		}
	}

	second := newCollector(t, sp.Interval)
	rep, err := traffic.Replay(ctx, recs, runner.NewHTTPSink(second.url.String()),
		traffic.Options{Speed: 0, MaxAttempts: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Accepted != len(recs) || rep.DistinctShards != len(good) {
		t.Fatalf("replay of the captured trace: %+v", rep)
	}
	if !bytes.Equal(first.aggregateBytes(t), second.aggregateBytes(t)) {
		t.Fatal("replaying the captured trace produced a different aggregate than the live run")
	}
}

// TestRelayRefusesInTheCollectorsShape: the relay's own refusal carries
// the collector's JSON error body, so a fleet behind it sees a typed
// SubmitError, and nothing it refused reaches the upstream or the trace.
func TestRelayRefusesInTheCollectorsShape(t *testing.T) {
	var forwarded atomic.Int32
	upstream := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { forwarded.Add(1) }))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	w, err := traffic.NewWriter(&trace, traffic.Meta{Source: "pmtraffic record"})
	if err != nil {
		t.Fatal(err)
	}
	cw := traffic.NewCaptureWriter(w)
	relay := httptest.NewServer(relayHandler(target, cw, 16))
	defer relay.Close()

	err = runner.NewHTTPSink(relay.URL).Submit(context.Background(), "big/s0",
		[]byte(`{"shard":"big/s0","profile":"AAAAAAAAAAAAAAAA"}`))
	var se *runner.SubmitError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge || se.Kind != "oversized" {
		t.Fatalf("oversized body: %v, want 413 kind oversized", err)
	}
	if cw.Count() != 0 || forwarded.Load() != 0 {
		t.Fatalf("refused body was recorded (%d) or forwarded (%d)", cw.Count(), forwarded.Load())
	}
}
