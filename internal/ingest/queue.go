// Package ingest is the server-side admission layer of the profile
// collection pipeline: a bounded submission queue that refuses when full,
// a circuit breaker guarding persistence, and an aggregator service that
// folds accepted shard databases into one loss-corrected aggregate.
//
// The design carries the paper's degradation contract across the network
// boundary: like ProfileMe's saturating counters and accounted
// interrupt-drop losses, overload here never corrupts the statistics —
// a submitted shard either merges into the aggregate or its captured
// sample count is recorded as loss (DB.RecordLoss), so the estimators
// stay centred no matter how hard the ingest path is hammered. Because
// clients retry (429/503 are transient in the sink taxonomy, and a lost
// 202 response makes a merged shard look undelivered), the service keeps
// a per-shard admission ledger: a resubmission of an admitted shard is
// acknowledged without re-merging, a repeat refusal accounts nothing
// new, and a refused shard that is later accepted has its recorded loss
// reversed (SafeDB.ReverseLoss). The conservation invariant the soak tests
// pin down therefore ranges over distinct shards, however many times
// each was submitted:
//
//	Σ captured(distinct submitted shards) == aggregate.Samples() + aggregate.Lost()
package ingest

import (
	"sync"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// Policy says what the queue does when it is full. RejectNew is the only
// one; Config.Policy names it for callers that spell it out.
type Policy int

// RejectNew refuses the incoming submission (the HTTP layer turns this
// into 429 Too Many Requests — backpressure to the worker).
const RejectNew Policy = 0

// Submission is one decoded shard profile waiting to be merged.
type Submission struct {
	// Shard identifies the submitting worker/shard (e.g. "compress/s003").
	Shard string
	// DB is the decoded shard database; the queue takes ownership.
	DB *profile.DB

	// wire is the profile envelope DB was decoded from, verified by that
	// decode; nil when the submission was built in-process. b64 is wire's
	// base64 as a canonical body carried it; nil for any other body. They
	// exist for the WAL admit record alone: Submit drops them once the
	// record is staged, so a queued shard holds only its decoded form.
	wire, b64 []byte
	// walPos is where Submit staged this submission's admit record
	// (zero when the WAL is disabled). It rides through the queue so
	// the aggregator can release the position from the checkpoint
	// barrier's pending set when the submission resolves.
	walPos wal.Pos
}

// Captured returns the total samples the shard's hardware captured —
// delivered plus already-lost — which is what the aggregate loses if
// this submission never merges.
func (s Submission) Captured() uint64 { return s.DB.Samples() + s.DB.Lost() }

// queueStats is a snapshot of the queue's counters.
type queueStats struct {
	Capacity  int    `json:"capacity"`
	Depth     int    `json:"depth"`
	HighWater int    `json:"high_water"` // max depth ever observed
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"` // refused at admission (full or closed)
}

// queue is a bounded MPSC submission queue: many HTTP handlers Offer,
// one aggregator goroutine Waits. A full queue refuses; Close starts the
// drain (Offer refuses, Wait hands out the backlog then reports
// exhaustion).
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Submission
	head   int
	count  int
	closed bool
	stats  queueStats
}

// newQueue builds a queue with the given capacity (at least 1).
func newQueue(capacity int) *queue {
	q := &queue{buf: make([]Submission, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// offerResult says how Offer disposed of a submission. Full and Closed
// are distinct on purpose: full means "retry soon" (429), closed means
// "this instance is draining, go elsewhere" (503) — collapsing them
// would send retry-soon advice from a server that is shutting down.
type offerResult int

const (
	// offerAccepted: the submission was enqueued.
	offerAccepted offerResult = iota
	// offerFull: refused, queue at capacity.
	offerFull
	// offerClosed: refused, the queue is closed (drain in progress).
	offerClosed
)

// offer tries to enqueue s and says whether it was admitted and, if not,
// why. The caller owns accounting for refusals — the queue counts them
// but does not know about the aggregate.
func (q *queue) offer(s Submission) offerResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		q.stats.Rejected++
		return offerClosed
	case q.count == len(q.buf):
		q.stats.Rejected++
		return offerFull
	}
	q.buf[(q.head+q.count)%len(q.buf)] = s
	q.count++
	q.stats.Accepted++
	if q.count > q.stats.HighWater {
		q.stats.HighWater = q.count
	}
	q.cond.Signal()
	return offerAccepted
}

// wait blocks until a submission is available and returns it; ok is
// false once the queue is closed AND fully drained — the aggregator's
// signal to write the final checkpoint and exit.
func (q *queue) wait() (s Submission, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.count == 0 {
		return Submission{}, false
	}
	s = q.buf[q.head]
	q.buf[q.head] = Submission{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return s, true
}

// close starts the drain: subsequent Offers are refused, queued
// submissions keep flowing out of Wait until the backlog is empty.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the current depth.
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// snapshot returns a snapshot of the counters.
func (q *queue) snapshot() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Capacity = len(q.buf)
	st.Depth = q.count
	return st
}
