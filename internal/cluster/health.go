package cluster

import (
	"context"
	"encoding/json"
	"net/http"

	"profileme/internal/api"
)

// Probe actively refreshes every member's health from its /readyz: 200
// revives (and re-opens admission), 503 with a draining body marks
// draining, transport failure counts toward Down. Down members are
// probed too — nothing else would ever revive them. The router's daemon
// runs this on a timer; tests call it directly after killing or reviving
// an instance.
func (rt *Router) Probe(ctx context.Context) {
	live, down, _ := rt.members.targets()
	for _, h := range append(live, down...) {
		status, raw, err := roundTrip(ctx, rt.client, http.MethodGet, h.url+"/readyz", nil, 0, 4096)
		if status == 0 {
			if rt.members.failed(h.id) == stateDown {
				rt.log.Warn("instance down", "instance", h.id, "err", err)
			}
			continue
		}
		var refusal api.Error
		_ = json.Unmarshal(raw, &refusal) // best effort: a body that is not an error body has no kind
		switch kind := refusal.Kind; {
		case status == http.StatusOK:
			rt.members.admits(h.id)
		case kind == "draining":
			rt.members.draining(h.id)
			rt.log.Info("instance draining", "instance", h.id)
		case kind == "wal-stalled", kind == "wal-failed":
			// A stalled WAL means every 202 would block on a sick disk, a
			// failed one that none can be issued until a restart replays:
			// treat like draining — steer new submissions to the ring
			// successor while the instance still serves queries and dedupes.
			rt.members.draining(h.id)
			rt.log.Warn("instance degraded", "instance", h.id, "kind", kind)
		default:
			// Not ready for another reason (e.g. breaker open): the
			// instance still serves queries and dedupes submissions, so
			// leave routing alone rather than guessing.
		}
	}
}
