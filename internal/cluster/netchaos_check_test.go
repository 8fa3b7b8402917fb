package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleDeterministic: the phase schedule is a pure function of
// (seed, srcs, dsts, n) — same inputs, same phases; input order must
// not matter.
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(42, []string{"router"}, []string{"c0", "c1", "c2"}, 12)
	b := Schedule(42, []string{"router"}, []string{"c2", "c0", "c1"}, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\nvs\n%v", a, b)
	}
	c := Schedule(43, []string{"router"}, []string{"c0", "c1", "c2"}, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical 12-phase schedules")
	}
	kinds := map[int]bool{} // cut arity seen: 0 (heal), 1 (asym), 2 (sym)
	for _, ph := range Schedule(7, []string{"router"}, []string{"c0", "c1"}, 64) {
		kinds[len(ph.Cuts)] = true
	}
	for _, want := range []int{0, 1, 2} {
		if !kinds[want] {
			t.Fatalf("64-phase schedule never produced a phase with %d cuts", want)
		}
	}
}

// TestDrawDeterministic: two plans with the same seed draw the same
// fault sequence per link, independent of traffic on other links.
func TestDrawDeterministic(t *testing.T) {
	seq := func(withNoise bool) []decision {
		p := MustNewPlan(99, Light())
		out := make([]decision, 0, 50)
		for i := 0; i < 50; i++ {
			if withNoise {
				// Interleave traffic on ANOTHER link: must not perturb c0's.
				p.draw("router", "c1")
			}
			out = append(out, p.draw("router", "c0"))
		}
		return out
	}
	if a, b := seq(false), seq(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("cross-link traffic perturbed a link's fault sequence")
	}
}

func TestValidate(t *testing.T) {
	bad := []Rates{
		{Latency: -0.1},
		{ResetAfter: 1.5},
		{LatencyMin: time.Second, LatencyMax: time.Millisecond, Latency: 0.5},
		{DripChunk: -1},
	}
	for i, r := range bad {
		if _, err := newPlan(1, r); err == nil {
			t.Errorf("rates %d: invalid Rates accepted", i)
		}
	}
	if _, err := newPlan(1, Light()); err != nil {
		t.Fatalf("Light rates rejected: %v", err)
	}
}

// TestPartition: a cut directed link fails with errPartitioned without
// the server seeing the request; healing restores it; an asymmetric cut
// leaves the other source's path up.
func TestPartition(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{})
	p.RegisterHost(ts.Listener.Addr().String(), "c0")
	router := &http.Client{Transport: p.Transport("router", nil)}
	other := &http.Client{Transport: p.Transport("witness", nil)}

	p.partition("router", "c0")
	_, err := router.Get(ts.URL)
	if err == nil || !errors.Is(urlErr(t, err), errPartitioned) {
		t.Fatalf("cut link: got err %v, want ErrPartitioned", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("partitioned request reached the server")
	}
	// Asymmetric: witness->c0 still up.
	if resp, err := other.Get(ts.URL); err != nil {
		t.Fatalf("uncut link failed: %v", err)
	} else {
		resp.Body.Close()
	}
	p.heal("router", "c0")
	if resp, err := router.Get(ts.URL); err != nil {
		t.Fatalf("healed link failed: %v", err)
	} else {
		resp.Body.Close()
	}
	if got := p.Counts().Partitioned; got != 1 {
		t.Fatalf("Partitioned count = %d, want 1", got)
	}
}

// urlErr unwraps the *url.Error an http.Client wraps transport errors
// in, returning the inner error.
func urlErr(t *testing.T, err error) error {
	t.Helper()
	inner := errors.Unwrap(err)
	if inner == nil {
		t.Fatalf("expected wrapped transport error, got %v", err)
	}
	return inner
}

// TestResetAfterDelivery: the fault the whole admission-ledger design
// exists for — the server fully processes the request, the client sees
// a transport error. The hit counter proves delivery happened.
func TestResetAfterDelivery(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{ResetAfter: 1})
	client := &http.Client{Transport: p.Transport("router", nil)}
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatalf("reset-after delivery returned no error")
	} else if !errors.Is(urlErr(t, err), errReset) {
		t.Fatalf("got %v, want ErrReset", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1 (delivered, response lost)", hits.Load())
	}
	if p.Counts().ResetsAfter != 1 {
		t.Fatalf("ResetsAfter = %d, want 1", p.Counts().ResetsAfter)
	}
}

// TestResetBefore: the request never reaches the server.
func TestResetBefore(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{ResetBefore: 1})
	client := &http.Client{Transport: p.Transport("router", nil)}
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatalf("reset-before returned no error")
	}
	if hits.Load() != 0 {
		t.Fatalf("reset-before request reached the server")
	}
	// Quiesce ends per-request faults and cuts alike: the same certain
	// reset, over a cut link, now goes through untouched.
	p.partition("router", ts.Listener.Addr().String())
	p.Quiesce()
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("request after Quiesce: %v", err)
	}
	resp.Body.Close()
	if c := p.Counts(); hits.Load() != 1 || c.ResetsBefore != 1 || c.Partitioned != 0 || c.Requests != 2 {
		t.Fatalf("after Quiesce: %d hits, counts %+v", hits.Load(), c)
	}
}

// TestDuplicateDelivery: a POST with a replayable body is delivered
// twice; the caller sees one (successful) response.
func TestDuplicateDelivery(t *testing.T) {
	var hits atomic.Int64
	var lastBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		lastBody.Store(string(b))
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{Duplicate: 1})
	client := &http.Client{Transport: p.Transport("router", nil)}
	resp, err := client.Post(ts.URL, "text/plain", bytes.NewReader([]byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.Wait()
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2 (original + duplicate)", hits.Load())
	}
	if got := lastBody.Load().(string); got != "payload" {
		t.Fatalf("duplicate delivered body %q, want %q", got, "payload")
	}
	if p.Counts().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", p.Counts().Duplicated)
	}
}

// TestDrip: a dripped response still delivers the full body intact.
func TestDrip(t *testing.T) {
	payload := bytes.Repeat([]byte("profileme"), 1000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{Drip: 1, DripChunk: 512, DripDelay: 100 * time.Microsecond})
	client := &http.Client{Transport: p.Transport("router", nil)}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("dripped body damaged: %d bytes, want %d", len(got), len(payload))
	}
	if p.Counts().Dripped != 1 {
		t.Fatalf("Dripped = %d, want 1", p.Counts().Dripped)
	}
}

// TestApplyPhase: phases install exactly their cuts and heal the rest.
func TestApplyPhase(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	p := MustNewPlan(1, Rates{})
	p.RegisterHost(ts.Listener.Addr().String(), "c0")
	client := &http.Client{Transport: p.Transport("router", nil)}
	p.ApplyPhase(Phase{Name: "cut", Cuts: [][2]string{{"router", "c0"}}})
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatalf("phase cut not applied")
	}
	p.ApplyPhase(Phase{Name: "heal"})
	if resp, err := client.Get(ts.URL); err != nil {
		t.Fatalf("phase heal not applied: %v", err)
	} else {
		resp.Body.Close()
	}
}
