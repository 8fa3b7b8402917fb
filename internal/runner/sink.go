package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"profileme/internal/api"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// Sink receives each completed job's shard profile as its encoded
// /v1/submit body (ingest.EncodeSubmit): a submission travels as its
// bytes, so a retry, a relay and a trace replay all put the same bytes
// on the wire. A fleet with a sink still merges every shard into its
// local aggregate — the sink is an additional destination (a pmsimd
// collector), and a shard that cannot be delivered degrades to
// local-only instead of failing the job.
type Sink interface {
	Submit(ctx context.Context, shard string, body []byte) error
}

// SubmitError is a typed shard-submission failure carrying the
// collector's HTTP status, so the retry loop can apply the service's own
// taxonomy: 429 (queue full) and 503 (draining/overloaded) are explicit
// backpressure, 5xx and transport failures are transient, and any other
// 4xx (damaged payload, config mismatch) is permanent — retrying a 409
// can only waste the collector's admission budget.
//
// Retrying refusals is safe on the accounting side: the collector keys
// its loss ledger by shard id, so a shard refused-then-accepted has its
// refusal loss reversed when it merges, and a resubmission after a lost
// response (transport error with Status 0) dedupes server-side instead
// of merging twice.
type SubmitError struct {
	// Status is the HTTP status; 0 means the request never completed
	// (transport failure).
	Status int
	// Kind is the collector's error kind ("queue-full", "draining", ...).
	Kind string
	Msg  string
}

func (e *SubmitError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("runner: shard submission: %s", e.Msg)
	}
	return fmt.Sprintf("runner: shard submission refused: %d %s (%s)", e.Status, e.Kind, e.Msg)
}

// Transient reports whether a retry with backoff can plausibly succeed.
func (e *SubmitError) Transient() bool {
	switch {
	case e.Status == 0:
		return true // transport: collector restarting, network blip
	case e.Status == http.StatusTooManyRequests, e.Status == http.StatusServiceUnavailable:
		return true // explicit backpressure: Retry-After semantics
	case e.Status >= 500:
		return true
	default:
		return false // other 4xx: the request itself is unacceptable
	}
}

// httpSink posts shard profiles to a collector's /v1/submit — a single
// pmsimd, or a pmrouter fronting the sharded tier. Extra URLs are
// transport-level fallbacks: when the current endpoint is unreachable
// (the request never completes), Submit tries the next in the same call
// and then sticks with whichever answered. Considered refusals
// (429/503 backpressure, 4xx) are NOT failed over — those are the
// collector's admission policy speaking, and the fleet's backoff loop
// already honors them against the same endpoint.
//
// Fallbacks must front the same admission-ledger domain (a second
// router over the same tier, or a replica of the same collector):
// endpoints with independent ledgers would merge a retried shard twice.
type httpSink struct {
	// baseURLs are the collector roots in preference order, e.g.
	// ["http://router-a:7000", "http://router-b:7000"].
	baseURLs []string
	client   *http.Client

	mu      sync.Mutex
	current int // index of the endpoint that last worked
}

// NewHTTPSink builds a sink for the collector at baseURL, with optional
// transport-failover fallbacks.
func NewHTTPSink(baseURL string, fallbacks ...string) Sink {
	urls := []string{strings.TrimRight(baseURL, "/")}
	for _, u := range fallbacks {
		urls = append(urls, strings.TrimRight(u, "/"))
	}
	return &httpSink{baseURLs: urls, client: &http.Client{Timeout: 30 * time.Second}}
}

// Submit posts one shard's encoded body verbatim, failing over across
// baseURLs on transport errors. Non-202 responses come back as
// *SubmitError with the collector's status and error kind.
func (s *httpSink) Submit(ctx context.Context, shard string, body []byte) error {
	s.mu.Lock()
	start := s.current
	s.mu.Unlock()
	n := len(s.baseURLs)
	var lastErr error
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		err := s.submitTo(ctx, s.baseURLs[idx], body)
		var se *SubmitError
		if errors.As(err, &se) && se.Status == 0 && ctx.Err() == nil {
			// Endpoint unreachable: try the next one now rather than
			// burning a whole backoff attempt on a dead address.
			lastErr = err
			continue
		}
		if err == nil && idx != start {
			s.mu.Lock()
			s.current = idx
			s.mu.Unlock()
		}
		return err
	}
	return lastErr
}

func (s *httpSink) submitTo(ctx context.Context, baseURL string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("runner: shard submission request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return &SubmitError{Status: 0, Msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	se := &SubmitError{Status: resp.StatusCode}
	if raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		var refusal api.Error
		if json.Unmarshal(raw, &refusal) == nil {
			se.Kind, se.Msg = refusal.Kind, refusal.Msg
		} else {
			se.Msg = strings.TrimSpace(string(raw))
		}
	}
	return se
}

// SubmitWithRetry delivers one encoded shard to sink under the
// collector's retry taxonomy: a transient refusal (429/503/5xx/
// transport) is retried until maxAttempts deliveries have been made, a
// permanent one (any other 4xx) or a done ctx ends the loop at once.
// backoff is called once per retry, with the number of the attempt that
// just failed and its error, and returns the sleep before the next —
// the place for a caller to count or log retries. The last delivery
// error is returned.
func SubmitWithRetry(ctx context.Context, sink Sink, shard string, body []byte, maxAttempts int, backoff func(attempt int, err error) time.Duration) error {
	for attempt := 1; ; attempt++ {
		err := sink.Submit(ctx, shard, body)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !transientErr(err) || attempt >= maxAttempts {
			return err
		}
		select {
		case <-time.After(backoff(attempt, err)):
		case <-ctx.Done():
			return err
		}
	}
}

// submitShard delivers one completed shard to the configured sink,
// encoded once whatever its attempt count, on the fleet's seeded backoff
// schedule. Failure never fails the job — the shard is already merged
// locally — it is reported as degradation.
func (f *Fleet) submitShard(ctx context.Context, id string, db *profile.DB) error {
	if f.cfg.Sink == nil {
		return nil
	}
	body, err := ingest.EncodeSubmit(id, db)
	if err != nil {
		return fmt.Errorf("runner: encode shard %s: %w", id, err)
	}
	return SubmitWithRetry(ctx, f.cfg.Sink, id, body, f.cfg.maxAttempts, func(attempt int, err error) time.Duration {
		f.log.Warn("submission attempt failed", "job", id, "attempt", attempt, "err", err)
		return f.backoff(id+"#submit", attempt)
	})
}
