package traffic

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"profileme/internal/cpu"
	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/server"
)

// collector is one fresh in-process pmsimd: service + HTTP edge.
type collector struct {
	svc *ingest.Service
	h   http.Handler
	ts  *httptest.Server
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
	h := server.New(server.Config{Instance: "c0"}, svc).Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &collector{svc: svc, h: h, ts: ts}
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

// TestReplayDeterminism is the PR's core acceptance gate: record a
// diurnal+burst trace, replay it twice against fresh collector
// instances, and require bit-identical final aggregate bytes and
// identical conservation sums. The shard-deduped, order-independent
// merge makes the aggregate a pure function of the trace once every
// record is accepted; this test holds the whole stack to that.
func TestReplayDeterminism(t *testing.T) {
	sp := smallSpec()
	traceBytes := driveTrace(t, sp)
	_, recs, err := ReadAll(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{Speed: 0, MaxAttempts: 20, Backoff: 5 * time.Millisecond}
	run := func() ([]byte, *Report) {
		c := newCollector(t, sp.Interval)
		rep, err := Replay(context.Background(), recs, runner.NewHTTPSink(c.ts.URL), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d records failed delivery", rep.Failed)
		}
		if rep.Accepted != len(recs) {
			t.Fatalf("accepted %d of %d", rep.Accepted, len(recs))
		}
		return c.aggregateBytes(t), rep
	}

	agg1, rep1 := run()
	agg2, rep2 := run()
	if !bytes.Equal(agg1, agg2) {
		t.Fatal("replaying the same trace produced different aggregate bytes")
	}
	if rep1.CapturedSum != rep2.CapturedSum || rep1.CapturedSum == 0 {
		t.Fatalf("conservation sums differ or empty: %d vs %d", rep1.CapturedSum, rep2.CapturedSum)
	}

	// Conservation: the aggregate's captured total must equal the sum
	// over distinct offered shards (duplicate arrivals dedupe, refusals
	// that later succeed reverse their loss).
	c3 := newCollector(t, sp.Interval)
	rep3, err := Replay(context.Background(), recs, runner.NewHTTPSink(c3.ts.URL), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Failed != 0 {
		t.Fatalf("%d records failed delivery", rep3.Failed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c3.svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c := c3.svc.Aggregate().CountersSnapshot()
	if got := c.Samples + c.Lost; got != rep3.CapturedSum {
		t.Fatalf("aggregate captured %d != offered distinct-shard sum %d", got, rep3.CapturedSum)
	}
}

// TestDriveSubmitsAndRecords drives the spec live (sink + recorder in
// one pass) and checks the trace matches what the collector admitted.
func TestDriveSubmitsAndRecords(t *testing.T) {
	sp := smallSpec()
	c := newCollector(t, sp.Interval)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Spec: sp, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Drive(context.Background(), sp, runner.NewHTTPSink(c.ts.URL), w,
		Options{Speed: 0, MaxAttempts: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Accepted != rep.Records {
		t.Fatalf("drive: %+v", rep)
	}
	if w.n != rep.Records {
		t.Fatalf("recorded %d of %d submissions", w.n, rep.Records)
	}
	// The trace must be exactly the record-only trace: recording with a
	// live sink must not perturb the captured bytes.
	if !bytes.Equal(buf.Bytes(), driveTrace(t, smallSpec())) {
		t.Fatal("live-driven trace differs from record-only trace")
	}
	agg := c.aggregateBytes(t)
	if len(agg) == 0 {
		t.Fatal("empty aggregate")
	}
}

// TestReplaySpeedWarp checks -speed actually warps pacing: a 2-record
// trace 300ms apart replayed at 10x completes well under recorded time,
// and at speed 1 takes at least the recorded gap.
func TestReplaySpeedWarp(t *testing.T) {
	sp := smallSpec()
	pools, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	p := pools["steady"][0]
	recs := []Record{
		{OffsetUS: 0, Cohort: "steady", Shard: p.Shard, Body: p.Body},
		{OffsetUS: 300_000, Cohort: "steady", Shard: p.Shard, Body: p.Body},
	}
	c := newCollector(t, sp.Interval)
	sink := runner.NewHTTPSink(c.ts.URL)
	opts := Options{Speed: 10, MaxAttempts: 20, Backoff: 5 * time.Millisecond}
	start := time.Now()
	if _, err := Replay(context.Background(), recs, sink, opts); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("10x replay of a 300ms trace took %v", el)
	}
	opts.Speed = 1
	start = time.Now()
	if _, err := Replay(context.Background(), recs, sink, opts); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("1x replay of a 300ms trace took only %v", el)
	}
}

// reorderedBody wraps db in a valid but non-canonical submission: the
// profile envelope pads its window, the varint at payload[8], with a zero
// group it does not need (the shape ingest's
// TestNonCanonicalEnvelopeLoggedAsReceived uses) and the JSON names
// "profile" before "shard". Decoding and re-encoding it yields different
// bytes, so only a driver that sends what it recorded delivers it
// unchanged.
func reorderedBody(t *testing.T, shard string, db *profile.DB) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	payload := img.Bytes()[frame.HeaderLen+8 : img.Len()-4]
	_, n := binary.Uvarint(payload[8:])
	last := 8 + n - 1
	padded := slices.Concat(payload[:last], []byte{payload[last] | 0x80, 0}, payload[last+1:])
	var env bytes.Buffer
	if err := frame.WriteEnvelope(&env, "PMDB", 2, func(w io.Writer) error {
		_, err := w.Write(padded)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b64, err := json.Marshal(env.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{ "profile": %s, "shard": %q }`, b64, shard))
}

// TestReplaySendsRecordedBytes: a submission travels as its bytes. A
// recorded non-canonical body — one the driver could not reproduce by
// decoding and re-encoding — reaches the collector byte-identical to
// Record.Body, and merges like its canonical form.
func TestReplaySendsRecordedBytes(t *testing.T) {
	sp := smallSpec()
	pools, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	p := pools["steady"][0]
	odd := reorderedBody(t, p.Shard, p.DB)
	if canonical, err := ingest.EncodeSubmit(p.Shard, p.DB); err != nil || bytes.Equal(odd, canonical) {
		t.Fatalf("test body is canonical (err %v)", err)
	}
	recs := []Record{{Cohort: "steady", Shard: p.Shard, Body: odd}}

	c := newCollector(t, sp.Interval)
	var (
		mu       sync.Mutex
		received [][]byte
	)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		received = append(received, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		c.h.ServeHTTP(w, r)
	}))
	defer front.Close()

	rep, err := Replay(context.Background(), recs, runner.NewHTTPSink(front.URL),
		Options{Speed: 0, MaxAttempts: 20, Backoff: 5 * time.Millisecond})
	if err != nil || rep.Failed != 0 || rep.Accepted != 1 {
		t.Fatalf("replay: %+v, %v", rep, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || !bytes.Equal(received[0], odd) {
		t.Fatalf("collector received %d bodies; the first is not Record.Body verbatim", len(received))
	}
	if want := p.DB.Samples() + p.DB.Lost(); rep.CapturedSum != want {
		t.Fatalf("CapturedSum %d, want %d", rep.CapturedSum, want)
	}
	// The collector holds the shard's samples, neither lost nor doubled.
	c2 := newCollector(t, sp.Interval)
	recs[0].Body = p.Body
	if _, err := Replay(context.Background(), recs, runner.NewHTTPSink(c2.ts.URL), Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.aggregateBytes(t), c2.aggregateBytes(t)) {
		t.Fatal("the reordered body merged to a different aggregate than its canonical form")
	}
}
