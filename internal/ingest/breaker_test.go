package ingest

import (
	"bytes"
	"errors"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

var errDisk = errors.New("disk on fire")

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	c := &fakeClock{t: time.Unix(1000, 0)}
	b.now = c.now
	return b, c
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	fail := func() error { return errDisk }

	for i := 0; i < 2; i++ {
		if _, _, err := b.do(fail); !errors.Is(err, errDisk) {
			t.Fatalf("call %d: %v", i, err)
		}
		if st := b.State(); st != breakerClosed {
			t.Fatalf("state after %d failures: %v", i+1, st)
		}
	}
	if _, _, err := b.do(fail); !errors.Is(err, errDisk) {
		t.Fatal(err)
	}
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after threshold: %v", st)
	}
	// Short-circuited while open: the dependency is not called.
	called := false
	_, _, err := b.do(func() error { called = true; return nil })
	if !errors.Is(err, errBreakerOpen) || called {
		t.Fatalf("open breaker let a call through: err=%v called=%v", err, called)
	}
	st := b.snapshot()
	if st.Trips != 1 || st.Failures != 3 || st.Shorted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	if _, _, err := b.do(func() error { return errDisk }); !errors.Is(err, errDisk) {
		t.Fatal(err)
	}
	if b.State() != breakerOpen {
		t.Fatal("breaker did not open")
	}

	// Probe fails → re-open, cooldown restarts.
	clk.advance(time.Minute)
	if b.State() != breakerHalfOpen {
		t.Fatalf("state after cooldown: %v", b.State())
	}
	if _, _, err := b.do(func() error { return errDisk }); !errors.Is(err, errDisk) {
		t.Fatal(err)
	}
	if b.State() != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if _, _, err := b.do(func() error { return nil }); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("re-opened breaker admitted a call: %v", err)
	}

	// Probe succeeds → closed, calls flow again.
	clk.advance(time.Minute)
	if _, _, err := b.do(func() error { return nil }); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if b.State() != breakerClosed {
		t.Fatalf("state after successful probe: %v", b.State())
	}
	if _, _, err := b.do(func() error { return nil }); err != nil {
		t.Fatalf("closed breaker refused a call: %v", err)
	}
	st := b.snapshot()
	if st.Trips != 2 || st.Successes != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBreakerSuccessResetsConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	seq := []error{errDisk, errDisk, nil, errDisk, errDisk}
	for i, e := range seq {
		_, _, err := b.do(func() error { return e })
		if !errors.Is(err, e) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// 2 failures, success, 2 failures: never 3 consecutive, still closed.
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state %v after interleaved successes", st)
	}
}

// TestBreakerLogsTransitionsOnce: a checkpoint breaker that opens, flaps
// half-open through three cooldowns while the disk stays dead, then
// recovers logs one "breaker opened" and one "breaker closed"; the flaps
// are counted as trips, not logged.
func TestBreakerLogsTransitionsOnce(t *testing.T) {
	var logs bytes.Buffer
	diskErr := errDisk
	s, err := NewService(Config{CheckpointPath: filepath.Join(t.TempDir(), "ck"), BreakerThreshold: 2, BreakerCooldown: time.Minute,
		Log: slog.New(slog.NewJSONHandler(&logs, nil)), persist: func() error { return diskErr }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.brk.now = clk.now
	s.checkpoint()
	s.checkpoint() // the threshold-th failure opens
	for cycle := 0; cycle < 3; cycle++ {
		s.checkpoint() // short-circuited
		clk.advance(time.Minute)
		s.checkpoint() // the half-open probe fails: open again
	}
	diskErr = nil
	clk.advance(time.Minute)
	for i := 0; i < 3; i++ {
		s.checkpoint() // the probe closes; the rest flow
	}
	if st := s.brk.snapshot(); st.State != breakerClosed || st.Trips != 4 || st.Shorted != 3 {
		t.Fatalf("breaker %+v, want closed after 4 trips and 3 short circuits", st)
	}
	for msg, want := range map[string]int{"breaker opened": 1, "breaker closed": 1, "checkpoint failed": 5} {
		if got := strings.Count(logs.String(), `"msg":"`+msg+`"`); got != want {
			t.Errorf("logged %d %q records, want %d:\n%s", got, msg, want, logs.String())
		}
	}
}
