package ingest

import (
	"errors"
	"sync"
	"time"
)

// A breaker's positions, named as /v1/stats spells them.
const (
	// breakerClosed: calls flow through; consecutive failures are counted.
	breakerClosed = "closed"
	// breakerOpen: calls are short-circuited with errBreakerOpen until the
	// cooldown elapses.
	breakerOpen = "open"
	// breakerHalfOpen: open, and the cooldown elapsed; exactly one probe
	// call is let through. Success closes the breaker, failure re-opens it.
	breakerHalfOpen = "half-open"
)

// errBreakerOpen reports a call short-circuited because the breaker is
// open (or a half-open probe is already in flight).
var errBreakerOpen = errors.New("ingest: circuit breaker open")

// breakerStats is a snapshot of a breaker's counters.
type breakerStats struct {
	State     string `json:"state"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	Trips     uint64 `json:"trips"`           // transitions into open
	Shorted   uint64 `json:"short_circuited"` // calls refused while open
}

// breaker is a classic three-state circuit breaker guarding a flaky
// dependency — here, checkpoint persistence: a full disk must not stall
// the ingest hot path on every merge, so after `threshold` consecutive
// failures writes are suspended for `cooldown`, then probed half-open.
// The clock is injectable for deterministic tests.
type breaker struct {
	mu          sync.Mutex
	state       string
	consecFails int
	probing     bool
	openedAt    time.Time

	threshold int
	cooldown  time.Duration
	now       func() time.Time

	stats breakerStats
}

// newBreaker builds a closed breaker that opens after threshold
// consecutive failures and probes again after cooldown.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{state: breakerClosed, threshold: threshold, cooldown: cooldown, now: time.Now}
}

// do runs f under the breaker's admission rules and returns f's error,
// or errBreakerOpen when the call was short-circuited. It is the one
// writer of the breaker's position, closed or open (half-open is an open
// breaker past its cooldown, whose one probe call is let through), and
// returns the position its write found and the one it left.
func (b *breaker) do(f func() error) (from, to string, err error) {
	b.mu.Lock()
	from = b.state
	probe := from == breakerOpen
	if probe && (b.probing || b.now().Sub(b.openedAt) < b.cooldown) {
		b.stats.Shorted++
		b.mu.Unlock()
		return from, from, errBreakerOpen
	}
	b.probing = probe
	b.mu.Unlock()

	err = f()

	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	from, to = b.state, b.state
	if err == nil {
		b.stats.Successes++
		b.consecFails, to = 0, breakerClosed
	} else {
		b.stats.Failures++
		b.consecFails++
		if probe || b.consecFails >= b.threshold {
			if probe || from != breakerOpen {
				b.stats.Trips++ // a failed probe re-opens: a trip too
			}
			to, b.openedAt = breakerOpen, b.now()
		}
	}
	b.state = to
	return from, to, err
}

// State returns the breaker's current position, promoting open to
// half-open when the cooldown has elapsed (so readiness probes see the
// recovering state without having to issue a write).
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return breakerHalfOpen
	}
	return b.state
}

// snapshot returns a snapshot of the counters.
func (b *breaker) snapshot() breakerStats {
	b.mu.Lock()
	st := b.stats
	b.mu.Unlock()
	st.State = b.State()
	return st
}
