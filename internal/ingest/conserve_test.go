package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"profileme/internal/profile"
)

// TestConservationProperty is a randomized property test of the service's
// central accounting invariant: every sample the fleet's hardware captured
// is accounted exactly once, as either aggregated or lost. Formally, after
// a drain,
//
//	Σ over distinct admitted-config shards ever submitted of Captured(shard)
//	    == Aggregate.Samples() + Aggregate.Lost()
//
// no matter how submissions, duplicates, refusals (429 full / 503
// draining), retries, and the drain interleave. Each seed builds a random
// service shape (queue depth, aggregator speed, drain timing) and a
// random concurrent client schedule, then checks the ledger.
// Config-mismatched shards are refused without accounting — they are
// never part of this aggregate's population — and so contribute nothing
// to either side.
func TestConservationProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConservationTrial(t, seed)
		})
	}
}

func runConservationTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	cfg := Config{
		QueueDepth: 1 + rng.Intn(4),
		Interval:   16,
		Width:      4,
	}
	// A randomly slowed aggregator varies how much of the schedule runs
	// against a full queue vs an empty one.
	if delay := rng.Intn(3); delay > 0 {
		d := time.Duration(delay*50) * time.Microsecond
		cfg.mergeHook = func(Submission) { time.Sleep(d) }
	}
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Occasionally leave the aggregator stopped: everything beyond the
	// queue is refused and the whole backlog merges once Drain starts it.
	if rng.Intn(4) != 0 {
		svc.Start()
	}

	// Shard pool. A shard may carry its own hardware loss (Captured counts
	// it), and a few are built with a mismatched sampling configuration.
	nShards := 8 + rng.Intn(24)
	shards := make([]Submission, nShards)
	mismatched := make([]bool, nShards)
	for i := range shards {
		var db *profile.DB
		if rng.Intn(8) == 0 {
			mismatched[i] = true
			db = profile.NewDB(999, 0, 4) // interval != cfg.Interval
		} else {
			db = testShard(uint64(seed)*1000+uint64(i), 1+rng.Intn(30))
			if rng.Intn(3) == 0 {
				db.RecordLoss(uint64(1 + rng.Intn(10)))
			}
		}
		shards[i] = Submission{Shard: fmt.Sprintf("shard-%03d", i), DB: db}
	}

	// Pre-draw every client's schedule from the single RNG so the trial is
	// reproducible from its seed; the nondeterminism under test is the
	// goroutine interleaving, not the op sequence.
	type op struct {
		shard       int
		retryOnFull int // extra attempts after ErrQueueFull
	}
	nClients := 2 + rng.Intn(4)
	scripts := make([][]op, nClients)
	for c := range scripts {
		n := 20 + rng.Intn(40)
		for j := 0; j < n; j++ {
			scripts[c] = append(scripts[c], op{
				shard:       rng.Intn(nShards),
				retryOnFull: rng.Intn(3),
			})
		}
	}
	drainMid := rng.Intn(3) == 0 // sometimes drain cuts the schedule off

	var (
		mu        sync.Mutex
		submitted = make(map[int]bool) // shard index -> ever reached Submit
	)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(script []op) {
			defer wg.Done()
			for _, o := range script {
				for attempt := 0; ; attempt++ {
					mu.Lock()
					submitted[o.shard] = true
					mu.Unlock()
					err := svc.Submit(shards[o.shard])
					switch {
					case err == nil, errors.Is(err, ErrDuplicate), errors.Is(err, ErrDraining):
					case errors.Is(err, ErrConfigMismatch):
						if !mismatched[o.shard] {
							t.Errorf("shard %d: unexpected config mismatch", o.shard)
						}
					case errors.Is(err, ErrQueueFull):
						if attempt < o.retryOnFull {
							runtime.Gosched()
							continue
						}
					default:
						t.Errorf("shard %d: unexpected error %v", o.shard, err)
					}
					break
				}
			}
		}(scripts[c])
	}
	if drainMid {
		svc.BeginDrain()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var want uint64
	for idx := range submitted {
		if !mismatched[idx] {
			want += shards[idx].Captured()
		}
	}
	c := svc.Aggregate().CountersSnapshot()
	if got := c.Samples + c.Lost; got != want {
		t.Fatalf("conservation violated: samples %d + lost %d = %d, want Σ captured over %d distinct shards = %d",
			c.Samples, c.Lost, got, len(submitted), want)
	}

	// Ledger cross-checks: the service-level loss counter covers exactly
	// the refused-and-never-accepted shards (merged shards' own hardware
	// loss is carried by Merge, not the refusal ledger), and reversals
	// never exceed what was ever recorded.
	st := svc.Stats()
	if st.SamplesLost > c.Lost {
		t.Fatalf("service loss ledger %d exceeds aggregate loss %d", st.SamplesLost, c.Lost)
	}
	if st.Merged+st.MergeFailed > uint64(len(submitted)) {
		t.Fatalf("merged %d + merge-failed %d exceeds %d distinct shards",
			st.Merged, st.MergeFailed, len(submitted))
	}
}
