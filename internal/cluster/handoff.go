package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"profileme/internal/ingest"
)

// HandoffResult reports where a drain handoff landed.
type HandoffResult struct {
	// Instance is the receiver's id.
	Instance string
	// Captured is the captured-sample total the receiver acknowledged.
	Captured uint64
}

// SendHandoff ships one encoded handoff body to a receiver's
// /v1/handoff. A 202 succeeds; 503 means the receiver is itself
// retiring (the caller should walk to the next successor); anything
// else is an error with the receiver's typed body folded in.
func SendHandoff(ctx context.Context, client *http.Client, baseURL string, body []byte) (uint64, error) {
	status, raw, err := roundTrip(ctx, client, http.MethodPost, baseURL+"/v1/handoff", body, 0, 1<<20)
	if status == 0 {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, answered("handoff receiver", status, raw)
	}
	var ack struct {
		Captured uint64 `json:"captured"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, fmt.Errorf("handoff ack unparseable: %w", err)
	}
	return ack.Captured, nil
}

// DrainHandoff runs the clustered half of a graceful drain for a fully
// Flushed service: serialize the aggregate and admission ledger once,
// then walk the ring from this instance's successor until a peer
// accepts. On success the service is marked handed off (so the daemon
// skips the final checkpoint — the samples now live, exactly once, at
// the receiver). Peers that refuse or are unreachable are skipped; if
// every peer refuses, an error comes back and the caller falls back to
// local durability (FinalCheckpoint).
//
// The walk happens AFTER the flush and after the HTTP server stopped
// admitting, so every sample and every loss this instance ever recorded
// is inside the serialized envelope — nothing can land between
// serialization and shutdown and silently vanish from the fleet sum.
func DrainHandoff(ctx context.Context, svc *ingest.Service, client *http.Client, self string, peers map[string]string, vnodes int, seed uint64, log io.Writer) (HandoffResult, error) {
	ring := NewRing(vnodes, seed)
	ring.Add(self)
	for id := range peers {
		ring.Add(id)
	}
	succ, ok := ring.Successor(self)
	if !ok {
		return HandoffResult{}, fmt.Errorf("cluster: no ring successor for %s", self)
	}
	body, err := ingest.EncodeHandoff(self, svc.Aggregate().Save, svc.Ledger().Shards)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: encode handoff: %w", err)
	}
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, "cluster["+self+"]: "+format+"\n", args...)
		}
	}
	// Walk the true ring successor first — it inherits most of the
	// drainer's key space — then the remaining peers as fallbacks.
	walk := []string{succ}
	for _, id := range ring.Instances() {
		if id != self && id != succ {
			walk = append(walk, id)
		}
	}
	var lastErr error
	for _, id := range walk {
		base := peers[id]
		if base == "" {
			continue
		}
		captured, err := SendHandoff(ctx, client, base, body)
		if err != nil {
			lastErr = err
			logf("handoff to %s failed: %v", id, err)
			continue
		}
		svc.MarkHandedOff()
		logf("handoff to %s accepted: %d captured samples migrated", id, captured)
		return HandoffResult{Instance: id, Captured: captured}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no reachable peer")
	}
	return HandoffResult{}, fmt.Errorf("cluster: drain handoff from %s failed: %w", self, lastErr)
}
