package cluster

import (
	"context"
	"net/http"
	"sync"
)

// InstanceState is the router's view of one collector instance.
type InstanceState int

const (
	// StateHealthy: the instance answers and admits work.
	StateHealthy InstanceState = iota
	// StateDraining: the instance answered 503 draining — it still
	// serves queries for a grace period but refuses new submissions, so
	// the router fails submissions over to its ring successor.
	StateDraining
	// StateDown: consecutive transport failures crossed the threshold —
	// the instance gets no traffic until a probe or success revives it.
	StateDown
)

// String returns the wire spelling of the state.
func (s InstanceState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// health tracks per-instance state from both passive signals (request
// outcomes) and active /readyz probes. All methods are safe for
// concurrent use.
type health struct {
	mu        sync.Mutex
	threshold int // consecutive failures that mark an instance Down
	state     map[string]InstanceState
	fails     map[string]int
}

func newHealth(threshold int, instances []string) *health {
	if threshold < 1 {
		threshold = 3
	}
	h := &health{
		threshold: threshold,
		state:     make(map[string]InstanceState, len(instances)),
		fails:     make(map[string]int, len(instances)),
	}
	for _, id := range instances {
		h.state[id] = StateHealthy
	}
	return h
}

// ensure registers an instance id (Healthy) if it is not yet tracked —
// membership adds call this so the passive report guards below accept
// the new instance's signals.
func (h *health) ensure(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.state[id]; !ok {
		h.state[id] = StateHealthy
		h.fails[id] = 0
	}
}

// forget drops an instance's health history entirely. Called on
// membership removal so the probe loop and passive reports stop
// tracking it — without this, every removed instance would leak a
// state/fails entry forever and in-flight request legs finishing after
// the removal would resurrect it as a ghost.
func (h *health) forget(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.state, id)
	delete(h.fails, id)
}

// reportSuccess clears failure history and revives a Down/Draining
// instance: any successful exchange proves it is back. Signals for
// untracked ids (an instance removed while its request was in flight)
// are dropped rather than resurrecting the entry.
func (h *health) reportSuccess(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.state[id]; !ok {
		return
	}
	h.fails[id] = 0
	h.state[id] = StateHealthy
}

// reportFailure counts one transport failure; crossing the threshold
// marks the instance Down. Returns the resulting state (StateDown for
// untracked ids: a removed instance takes no traffic).
func (h *health) reportFailure(id string) InstanceState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.state[id]; !ok {
		return StateDown
	}
	h.fails[id]++
	if h.fails[id] >= h.threshold {
		h.state[id] = StateDown
	}
	return h.state[id]
}

// reportDraining marks an instance draining (it said so itself with a
// 503 draining refusal, or its /readyz flipped).
func (h *health) reportDraining(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.state[id]; !ok {
		return
	}
	h.state[id] = StateDraining
	h.fails[id] = 0
}

// tracked returns the ids currently under health tracking (the
// goroutine-leak test audits this against membership).
func (h *health) tracked() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.state))
	for id := range h.state {
		out = append(out, id)
	}
	return out
}

// get returns the instance's current state (Healthy for unknown ids).
func (h *health) get(id string) InstanceState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state[id]
}

// snapshot returns a copy of every instance's state.
func (h *health) snapshot() map[string]InstanceState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]InstanceState, len(h.state))
	for id, st := range h.state {
		out[id] = st
	}
	return out
}

// Probe actively refreshes every instance's health from its /readyz:
// 200 revives, 503 with a draining body marks draining, transport
// failure counts toward Down. The router's daemon runs this on a timer;
// tests call it directly after killing or reviving an instance.
func (rt *Router) Probe(ctx context.Context) {
	for id, base := range rt.instanceURLs() {
		status, raw, err := roundTrip(ctx, rt.client, http.MethodGet, base+"/readyz", nil, 0, 4096)
		if status == 0 {
			if rt.health.reportFailure(id) == StateDown {
				rt.logf("probe: instance %s down (%v)", id, err)
			}
			continue
		}
		kind := errorKind(raw)
		switch {
		case status == http.StatusOK:
			rt.health.reportSuccess(id)
		case kind == "draining":
			rt.health.reportDraining(id)
			rt.logf("probe: instance %s draining", id)
		case kind == "wal-stalled":
			// A stalled WAL means every 202 would block on a sick disk:
			// treat like draining — steer new submissions to the ring
			// successor while the instance still serves queries and dedupes.
			rt.health.reportDraining(id)
			rt.logf("probe: instance %s degraded (WAL stalled)", id)
		default:
			// Not ready for another reason (e.g. breaker open): the
			// instance still serves queries and dedupes submissions, so
			// leave routing alone rather than guessing.
		}
	}
}
