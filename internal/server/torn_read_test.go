package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"profileme/internal/ingest"
)

// pollDuringMerges queues enough shards that none is refused (so no loss
// is booked and every estimate is samples × 16), starts the merge loop,
// and runs check on the reply to path until the last shard merged,
// counting the replies it rejects.
func pollDuringMerges(t *testing.T, path string, check func(map[string]any) error) {
	t.Helper()
	const shards = 1500
	svc := testService(t, func(c *ingest.Config) {
		c.QueueDepth = shards
		c.CheckpointPath = ""
		c.SketchTopK = 4 // n above it: the hot-PC query takes the scan fallback
	})
	h := New(Config{}, svc).Handler()
	for i := 0; i < shards; i++ {
		body, err := ingest.EncodeSubmit(fmt.Sprintf("torn/s%04d", i), testShard(uint64(i), 10))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := ingest.DecodeSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	polls, torn := 0, 0
	var first error
	for deadline := time.Now().Add(time.Minute); svc.Stats().Merged < shards; {
		if time.Now().After(deadline) {
			t.Fatalf("merged %d of %d shards in a minute", svc.Stats().Merged, shards)
		}
		status, body := get(t, h, path)
		if status != http.StatusOK {
			continue // the PC may not have merged yet
		}
		polls++
		if err := check(body); err != nil {
			torn++
			if first == nil {
				first = err
			}
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d replies to %s mixed two instants; first: %v", torn, polls, path, first)
	}
}

// TestEstimateExactIsOneRead: the exact per-PC estimate reads its
// accumulator and its scale under one lock, so with no loss est_count and
// the retired-event estimate are both exactly samples × 16, however the
// merges interleave.
func TestEstimateExactIsOneRead(t *testing.T) {
	pollDuringMerges(t, "/v1/estimate?pc=0x400&sketch=false", func(body map[string]any) error {
		samples := body["samples"].(float64)
		est := body["est_count"].(float64)
		retired := body["est_event_counts"].(map[string]any)["retired"].(float64)
		if est != 16*samples || retired != 16*samples {
			return fmt.Errorf("samples %v, est_count %v, retired estimate %v", samples, est, retired)
		}
		return nil
	})
}

// TestHotPCsScanIsOneRead: the scan fallback takes its rows, counters and
// scale from one read: with no loss every row's est_count is its samples
// × 16, and, the rows covering every PC, they sum to the reply's samples.
func TestHotPCsScanIsOneRead(t *testing.T) {
	pollDuringMerges(t, "/v1/hotpcs?n=16&sketch=false", func(body map[string]any) error {
		if certified, _ := body["certified"].(bool); certified {
			return nil // the view certified it: fewer PCs than the sketch holds
		}
		var sum float64
		for _, r := range body["pcs"].([]any) {
			row := r.(map[string]any)
			samples, est := row["samples"].(float64), row["est_count"].(float64)
			if est != 16*samples {
				return fmt.Errorf("row %v: samples %v, est_count %v", row["pc"], samples, est)
			}
			sum += samples
		}
		if lost := body["lost"].(float64); sum != body["samples"].(float64) || lost != 0 {
			return fmt.Errorf("rows sum to %v samples, the reply says %v (lost %v)", sum, body["samples"], lost)
		}
		return nil
	})
}
