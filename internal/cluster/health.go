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
			rt.observe(h.id, sigFailed, "err", err)
			continue
		}
		var refusal api.Error
		_ = json.Unmarshal(raw, &refusal) // best effort: a body that is not an error body has no kind
		switch kind := refusal.Kind; {
		case status == http.StatusOK:
			rt.observe(h.id, sigAdmits, "path", "/readyz")
		case kind == "draining", kind == "wal-stalled", kind == "wal-failed":
			// A stalled or failed WAL cannot issue a 202 soon: like a drain,
			// steer submissions away; queries and dedupe still reach it.
			rt.observe(h.id, sigDraining, "kind", kind, "path", "/readyz")
		default:
			// Not ready otherwise (e.g. breaker open): it still serves
			// queries and dedupes submissions, so routing is left alone.
		}
	}
}

// observe feeds one signal about id to the membership table and logs the
// change of state it causes, if any. cause is the caller's attributes:
// err, shard or path, and kind on entry to draining.
func (rt *Router) observe(id string, sig signal, cause ...any) {
	from, to, epoch, ok := rt.members.observe(id, sig)
	if !ok || from == to {
		return
	}
	attrs := append([]any{"instance", id, "from", from.String(), "epoch", epoch}, cause...)
	switch to {
	case stateDown:
		rt.log.Warn("instance down", attrs...)
	case stateDraining:
		rt.log.Warn("instance draining", attrs...)
	default:
		rt.log.Info("instance healthy", attrs...)
	}
}
