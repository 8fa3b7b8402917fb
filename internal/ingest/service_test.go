package ingest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/profile"
)

func testServiceConfig(dir string) Config {
	return Config{
		QueueDepth:     4,
		Interval:       16,
		Width:          4,
		CheckpointPath: filepath.Join(dir, "agg.db"),
	}
}

// TestServiceOverflowAccounting is the deterministic half of the overload
// contract: with the aggregator not yet started, a burst beyond queue
// capacity is refused at admission, and every refused shard's captured
// samples land in the aggregate's loss accounting — exactly.
func TestServiceOverflowAccounting(t *testing.T) {
	svc, err := NewService(testServiceConfig(t.TempDir()), nil)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16 // 4x queue capacity
	var wantMerged, wantLost uint64
	var accepted, rejected int
	for i := 0; i < n; i++ {
		s := sub(fmt.Sprintf("s%03d", i), uint64(i), 10+i)
		err := svc.Submit(s)
		switch {
		case err == nil:
			accepted++
			wantMerged += s.Captured()
		case errors.Is(err, ErrQueueFull):
			rejected++
			wantLost += s.Captured()
		default:
			t.Fatalf("submission %d: unexpected error %v", i, err)
		}
	}
	if accepted != 4 || rejected != 12 {
		t.Fatalf("accepted %d rejected %d, want 4/12", accepted, rejected)
	}

	// Drain starts the aggregator, flushes the backlog and writes the
	// final checkpoint.
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	agg := svc.Aggregate()
	if got := agg.CountersSnapshot().Samples; got != wantMerged {
		t.Fatalf("aggregate samples %d, want %d", got, wantMerged)
	}
	if got := agg.CountersSnapshot().Lost; got != wantLost {
		t.Fatalf("aggregate lost %d, want %d (reconciliation must be exact)", got, wantLost)
	}
	st := svc.Stats()
	if st.OverloadRejected != 12 || st.SamplesLost != wantLost || st.Merged != 4 {
		t.Fatalf("stats %+v", st)
	}

	// The final checkpoint must be CRC-valid and carry the same totals.
	ck, err := LoadCheckpointFile(svc.cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	loaded := ck.Aggregate()
	if loaded.Samples() != wantMerged || loaded.Lost() != wantLost {
		t.Fatalf("checkpoint totals %d/%d, want %d/%d",
			loaded.Samples(), loaded.Lost(), wantMerged, wantLost)
	}
}

func TestServiceConfigMismatchRejectedWithoutLoss(t *testing.T) {
	svc, err := NewService(testServiceConfig(t.TempDir()), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := Submission{Shard: "skewed", DB: profile.NewDB(999, 0, 4)}
	if err := svc.Submit(bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("mismatched shard: %v", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != 0 {
		t.Fatalf("mismatch accounted as loss (%d): those samples were never in this population", got)
	}
}

// TestServiceBreakerSuspendsCheckpoints: a dead checkpoint path opens the
// breaker after the threshold, later merges short-circuit the write, and
// ingest itself keeps working.
func TestServiceBreakerSuspendsCheckpoints(t *testing.T) {
	cfg := testServiceConfig(t.TempDir())
	cfg.QueueDepth = 64
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	var mu sync.Mutex
	persistCalls := 0
	cfg.persist = func() error {
		mu.Lock()
		persistCalls++
		mu.Unlock()
		return errors.New("checkpoint device gone")
	}
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := svc.Submit(sub(fmt.Sprintf("s%03d", i), uint64(i), 5)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	svc.Start()
	// Drain flushes the queue; the final checkpoint also fails, which
	// Drain must surface — losing the aggregate silently is the one
	// unacceptable outcome.
	if err := svc.Drain(context.Background()); err == nil {
		t.Fatal("drain succeeded with a dead checkpoint path")
	}
	st := svc.Stats()
	if st.Merged != 6 {
		t.Fatalf("merged %d, want 6 (ingest must survive a dead disk)", st.Merged)
	}
	if st.CheckpointFailures < 2 {
		t.Fatalf("checkpoint failures %d, want >= 2", st.CheckpointFailures)
	}
	if st.CheckpointShorted == 0 {
		t.Fatal("no checkpoint was short-circuited: breaker never opened")
	}
	mu.Lock()
	calls := persistCalls
	mu.Unlock()
	// threshold failures + the breaker-bypassing final attempt; every
	// other checkpoint was short-circuited without touching the disk.
	if calls != 3 {
		t.Fatalf("persist called %d times, want 3 (2 to trip + 1 final bypass)", calls)
	}
}

// TestServiceDrainWaitsForBacklog: submissions in flight when the drain
// starts are merged, not lost, and Submit refuses during the drain with
// loss accounting.
func TestServiceDrainWaitsForBacklog(t *testing.T) {
	cfg := testServiceConfig(t.TempDir())
	cfg.QueueDepth = 64
	release := make(chan struct{})
	var once sync.Once
	gate := make(chan struct{})
	cfg.mergeHook = func(Submission) {
		once.Do(func() { close(gate) })
		<-release
	}
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 8; i++ {
		s := sub(fmt.Sprintf("s%03d", i), uint64(i), 7)
		want += s.Captured()
		if err := svc.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	<-gate // aggregator is mid-merge, backlog queued

	svc.BeginDrain()
	late := sub("late", 99, 7)
	if err := svc.Submit(late); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining service admitted work: %v", err)
	}
	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	agg := svc.Aggregate()
	if agg.CountersSnapshot().Samples != want {
		t.Fatalf("drained samples %d, want %d", agg.CountersSnapshot().Samples, want)
	}
	if agg.CountersSnapshot().Lost != late.Captured() {
		t.Fatalf("drain-refused shard not accounted: lost %d, want %d", agg.CountersSnapshot().Lost, late.Captured())
	}
}

// TestServiceRetryAfterRefusalReversesLoss is the regression test for
// the retry double-count: the sink taxonomy retries 429s, so a shard
// refused (loss-accounted) and later accepted must end up counted
// exactly once — the recorded loss is reversed when the retry merges,
// and a repeat refusal of the same shard accounts nothing new.
// Conservation ranges over distinct shards, not submission attempts.
func TestServiceRetryAfterRefusalReversesLoss(t *testing.T) {
	cfg := testServiceConfig(t.TempDir())
	cfg.QueueDepth = 1
	merged := make(chan Submission, 4)
	cfg.mergeHook = func(s Submission) { merged <- s }
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := sub("s001", 1, 10)
	s2 := sub("s002", 2, 20)
	if err := svc.Submit(s1); err != nil {
		t.Fatal(err)
	}
	// First refusal: the depth-1 queue is full, loss accounted.
	if err := svc.Submit(s2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: %v, want ErrQueueFull", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != s2.Captured() {
		t.Fatalf("refusal not accounted: lost %d, want %d", got, s2.Captured())
	}
	// Second refusal of the same shard: a retry, not new loss.
	if err := svc.Submit(s2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("retry against full queue: %v, want ErrQueueFull", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != s2.Captured() {
		t.Fatalf("repeat refusal double-counted: lost %d, want %d", got, s2.Captured())
	}
	if st := svc.Stats(); st.OverloadRejected != 2 || st.SamplesLost != s2.Captured() {
		t.Fatalf("stats after two refusals: %+v", st)
	}

	// The aggregator empties the queue; the retry is now accepted and
	// the earlier refusal loss reversed.
	svc.Start()
	<-merged // s1 merged, queue empty
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := svc.Submit(s2)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("retry: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("retry never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	c := svc.Aggregate().CountersSnapshot()
	want := s1.Captured() + s2.Captured()
	if got := c.Samples + c.Lost; got != want {
		t.Fatalf("conservation violated: samples %d + lost %d = %d, distinct shards captured %d",
			c.Samples, c.Lost, got, want)
	}
	if c.Lost != 0 {
		t.Fatalf("accepted retry left %d samples in the loss ledger", c.Lost)
	}
	st := svc.Stats()
	if st.SamplesLost != 0 || st.LossReversed != s2.Captured() || st.Merged != 2 {
		t.Fatalf("post-retry stats: %+v", st)
	}
}

// TestServiceDuplicateSubmission: resubmitting an admitted shard (what
// a client does after a lost 202 response) dedupes instead of merging
// twice — whether the original is still queued or already merged, and
// even while the service is draining.
func TestServiceDuplicateSubmission(t *testing.T) {
	svc, err := NewService(testServiceConfig(t.TempDir()), nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := sub("s001", 1, 10)
	if err := svc.Submit(s1); err != nil {
		t.Fatal(err)
	}
	// Original still queued: the retry must not occupy a second slot.
	if err := svc.Submit(sub("s001", 1, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("queued duplicate: %v, want ErrDuplicate", err)
	}
	if got := svc.QueueDepth(); got != 1 {
		t.Fatalf("duplicate enqueued: depth %d, want 1", got)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Original merged and the service draining: still a duplicate ack,
	// not a 503-with-loss — the data is already in the aggregate.
	if err := svc.Submit(sub("s001", 1, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("post-drain duplicate: %v, want ErrDuplicate", err)
	}
	c := svc.Aggregate().CountersSnapshot()
	if c.Samples != s1.Captured() || c.Lost != 0 {
		t.Fatalf("duplicates changed accounting: samples %d lost %d, want %d/0", c.Samples, c.Lost, s1.Captured())
	}
	if st := svc.Stats(); st.Duplicates != 2 || st.Merged != 1 {
		t.Fatalf("stats %+v, want 2 duplicates / 1 merged", st)
	}
}

// TestServiceConfigMismatchDuringDrain: 409 outranks 503 — a shard from
// a foreign population is never loss-accounted, draining or not.
func TestServiceConfigMismatchDuringDrain(t *testing.T) {
	svc, err := NewService(testServiceConfig(t.TempDir()), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	bad := Submission{Shard: "skewed", DB: profile.NewDB(999, 0, 4)}
	if err := svc.Submit(bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("mismatched shard during drain: %v, want ErrConfigMismatch", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != 0 {
		t.Fatalf("foreign-population shard accounted as loss during drain (%d)", got)
	}
}

// TestServiceClosedQueueRefusesAsDraining: a Submit that passes the
// draining check before Drain closes the queue lands on a closed queue;
// it must get drain semantics (ErrDraining → 503 go-elsewhere), not
// ErrQueueFull's retry-soon — and the retry-then-503 sequence must not
// account the shard's loss twice.
func TestServiceClosedQueueRefusesAsDraining(t *testing.T) {
	svc, err := NewService(testServiceConfig(t.TempDir()), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.q.close() // the race window: queue closed, draining flag not yet observed
	s1 := sub("s001", 1, 10)
	if err := svc.Submit(s1); !errors.Is(err, ErrDraining) {
		t.Fatalf("closed queue: %v, want ErrDraining", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != s1.Captured() {
		t.Fatalf("closed-queue refusal not accounted: lost %d, want %d", got, s1.Captured())
	}
	svc.BeginDrain()
	if err := svc.Submit(s1); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining retry: %v, want ErrDraining", err)
	}
	if got := svc.Aggregate().CountersSnapshot().Lost; got != s1.Captured() {
		t.Fatalf("retry-then-503 double-counted: lost %d, want %d", got, s1.Captured())
	}
}

// TestServiceStatsDuringMerges polls Stats from two goroutines while
// the aggregator merges. It is the regression test for two faults:
// the SafeDB.publishes race (Stats reads the sketch layer's publish
// count lock-free while the aggregator republishes views, so the
// counter must be atomic on both sides; fails under -race when it is
// not), and a torn reply: every merged sample is fed to the sketch, so
// Sketch.SketchN == Samples in any one published view, and a Stats that
// loads the view twice — once per section — lets a merge land between
// the two loads (it failed 20 runs in 20 that way).
func TestServiceStatsDuringMerges(t *testing.T) {
	const shards, pollers = 800, 2
	cfg := testServiceConfig(t.TempDir())
	cfg.QueueDepth = shards // never full: every submit is admitted first time
	cfg.CheckpointPath = ""
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var polls, torn atomic.Uint64
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := svc.Stats()
				polls.Add(1)
				if st.Sketch.Publishes < last {
					t.Errorf("publishes went backwards: %d after %d", st.Sketch.Publishes, last)
					return
				}
				last = st.Sketch.Publishes
				if st.Sketch.SketchN != st.Samples && torn.Add(1) == 1 {
					t.Errorf("torn stats: sketch_n %d, samples %d", st.Sketch.SketchN, st.Samples)
				}
			}
		}()
	}

	for i := 0; i < shards; i++ {
		if err := svc.Submit(sub(fmt.Sprintf("s%03d", i), uint64(i), 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d of %d polls torn", n, polls.Load())
	}
	// One row-rebuilding publish at construction plus one per merge.
	if st := svc.Stats(); st.Merged != shards || st.Sketch.Publishes != shards+1 {
		t.Fatalf("merged %d, publishes %d; want %d and %d", st.Merged, st.Sketch.Publishes, shards, shards+1)
	}
}
