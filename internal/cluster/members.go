package cluster

import "sync"

// instanceState is the router's view of one collector instance.
type instanceState int

const (
	// stateHealthy: the instance answers and admits work.
	stateHealthy instanceState = iota
	// stateDraining: the instance answered 503 draining — it still
	// serves queries for a grace period but refuses new submissions, so
	// the router fails submissions over to its ring successor.
	stateDraining
	// stateDown: consecutive transport failures crossed the threshold —
	// the instance gets no traffic until a probe or success revives it.
	stateDown
)

// String returns the wire spelling of the state.
func (s instanceState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	}
	return "unknown"
}

// member is one committed instance's row in the membership table.
type member struct {
	url   string
	state instanceState
	fails int // consecutive transport failures
	// deliveredTo: the receiver that holds this member's whole aggregate
	// and ledger (a removal is between the receiver's ack and the commit);
	// "" otherwise. Its samples would count twice if it stayed a query
	// leg, so it is none; it stays a submit candidate only for shards
	// pinned to it, whose retries its sealed ledger dedupes. Set by the
	// removal, cleared by reregister; health signals never touch it.
	deliveredTo string
	// offeredTo: the receiver that holds this member's envelope or may
	// (it acked, or its answer was lost: see sendHandoff); a retried
	// removal redelivers there alone. It changes no traffic.
	offeredTo string
}

// serving: the member takes fan-out traffic (query legs, probes of the
// live set, witness copies, anti-entropy).
func (m *member) serving() bool { return m.state != stateDown && m.deliveredTo == "" }

// hop is one place a request may be sent.
type hop struct{ id, url string }

// memberView is one member as /v1/membership and /readyz show it.
type memberView struct {
	hop
	state instanceState
}

// members is the router's membership table: who is a member, where, in
// what health, on which ring, and which member acknowledged which shard.
// Presence in byID IS membership — byID and ring always hold the same ids,
// and every pin names a member. mu guards all of it; only the methods
// below take it, each is one critical section, and none calls out while
// holding it, so every read is one instant's answer. An instance that is
// still being adopted into is not here: its URL is known only to the
// migration (see addInstance), and commitAdd is the one way in.
//
// Lifecycle of an id: (joining, outside the table) → commitAdd → healthy
// ⇄ draining / down (observe, the one writer of state) → delivered →
// commitRemove → gone. Signals that name an id outside the table — a
// request leg finishing after its instance was removed — are dropped.
type members struct {
	mu        sync.Mutex
	threshold int // consecutive failures that mark a member Down
	ring      *Ring
	byID      map[string]*member
	// pins: the member that acknowledged a shard, so a client retry after
	// a lost 202 goes back to the same ledger and dedupes instead of
	// double-merging elsewhere after a health flap. Grows with distinct
	// shard ids, like the per-instance admission ledger it protects.
	pins map[string]string
}

func newMembers(threshold, vnodes int, seed uint64, instances []Instance) *members {
	if threshold < 1 {
		threshold = 3
	}
	ms := &members{
		threshold: threshold,
		ring:      NewRing(vnodes, seed),
		byID:      make(map[string]*member, len(instances)),
		pins:      make(map[string]string),
	}
	for _, in := range instances {
		ms.commitAdd(in.ID, in.BaseURL)
	}
	return ms
}

// ---- transitions ----

// commitAdd makes id a Healthy member at url and returns the new epoch.
// On a known id it changes nothing.
func (ms *members) commitAdd(id, url string) uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.byID[id] == nil {
		ms.byID[id] = &member{url: url}
		ms.ring.Add(id)
	}
	return ms.ring.epoch
}

// commitRemove forgets id — ring position, URL, health — and repoints
// its pins at receiver, which holds its ledger and samples, so retries of
// shards the donor acknowledged keep deduping. Returns the new epoch and
// the pins repointed.
func (ms *members) commitRemove(id, receiver string) (epoch uint64, repointed int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.byID[id] != nil {
		delete(ms.byID, id)
		ms.ring.remove(id)
		for sh, at := range ms.pins {
			if at == id {
				ms.pins[sh] = receiver
				repointed++
			}
		}
	}
	return ms.ring.epoch, repointed
}

// reregister points a KNOWN id at a replacement process: same ring
// position, new URL, not delivered. False for a stranger.
func (ms *members) reregister(id, url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.byID[id]
	if m != nil {
		m.url, m.deliveredTo, m.offeredTo = url, "", ""
	}
	return m != nil
}

// delivered records that receiver acknowledged id's handoff envelope.
func (ms *members) delivered(id, receiver string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m := ms.byID[id]; m != nil {
		m.deliveredTo, m.offeredTo = receiver, receiver
	}
}

// offered records that receiver may hold id's handoff envelope.
func (ms *members) offered(id, receiver string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m := ms.byID[id]; m != nil {
		m.offeredTo = receiver
	}
}

// deliveredTo returns the receiver an earlier removal attempt delivered
// id's envelope to, or may have; "" when none.
func (ms *members) deliveredTo(id string) string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m := ms.byID[id]; m != nil {
		return m.offeredTo
	}
	return ""
}

// signal is one piece of evidence about a member's health.
type signal int

const (
	sigAnswered signal = iota // it answered something: a query leg
	sigAdmits                 // it takes submissions: a non-503 submit answer, a 200 /readyz, a re-registration
	sigFailed                 // a transport failure
	sigDraining               // it refuses submissions: a 503 submit answer or /readyz, a removal's export
)

// observe is the one writer of a member's state: it applies sig to id and
// returns the state before and after, and the epoch. Answered clears the
// failure count and revives Down, but says nothing about admission, so
// Draining stays; admits makes the member Healthy; the threshold-th
// failure in a row marks it Down. ok is false for a non-member, which
// takes no traffic and has no state to change.
func (ms *members) observe(id string, sig signal) (from, to instanceState, epoch uint64, ok bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.byID[id]
	if m == nil {
		return stateDown, stateDown, ms.ring.epoch, false
	}
	from, to = m.state, m.state
	fails := 0
	switch sig {
	case sigAnswered:
		if to == stateDown {
			to = stateHealthy
		}
	case sigAdmits:
		to = stateHealthy
	case sigFailed:
		if fails = m.fails + 1; fails >= ms.threshold {
			to = stateDown
		}
	case sigDraining:
		to = stateDraining
	}
	m.fails, m.state = fails, to
	return from, to, ms.ring.epoch, true
}

// pin records that member id acknowledged shard.
func (ms *members) pin(shard, id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.byID[id] != nil {
		ms.pins[shard] = id
	}
}

// ---- reads ----

// route returns where to offer a submission of shard, in order, and the
// epoch that order was derived under: the pinned member first, then ring
// order from the owner. Down members are left out; Draining and delivered
// ones are offered only the shards pinned to them, so their ledger can
// dedupe a retry of something they already merged.
func (ms *members) route(shard string) ([]hop, uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	pinned := ms.pins[shard]
	order := ms.ring.successors(shard, len(ms.ring.instances))
	hops := make([]hop, 0, len(order))
	if m := ms.byID[pinned]; m != nil && m.state != stateDown {
		hops = append(hops, hop{pinned, m.url})
	}
	for _, id := range order {
		if m := ms.byID[id]; id != pinned && m.state == stateHealthy && m.deliveredTo == "" {
			hops = append(hops, hop{id, m.url})
		}
	}
	return hops, ms.ring.epoch
}

// resolve answers /v1/resolve: shard's ring owner and, when one exists,
// its pinned member (zero hop otherwise), whatever their health. ok is
// false on an empty ring.
func (ms *members) resolve(shard string) (owner, pinned hop, epoch uint64, ok bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	id, ok := ms.ring.Owner(shard)
	if !ok {
		return hop{}, hop{}, ms.ring.epoch, false
	}
	owner = hop{id, ms.byID[id].url}
	if m := ms.byID[ms.pins[shard]]; m != nil {
		pinned = hop{ms.pins[shard], m.url}
	}
	return owner, pinned, ms.ring.epoch, true
}

// witness picks the holder of shard's witness copy: the first serving
// member after origin in the shard's ring order. Per-shard ring order
// (rather than a fixed per-instance successor) spreads one origin's
// witness set across the tier and keeps the choice stable across router
// restarts (the ring is seed-derived). ok is false when nobody else serves.
func (ms *members) witness(shard, origin string) (hop, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, id := range ms.ring.successors(shard, len(ms.ring.instances)) {
		if m := ms.byID[id]; id != origin && m.serving() {
			return hop{id, m.url}, true
		}
	}
	return hop{}, false
}

// targets splits the members whose data is not held elsewhere into live
// (serving: the legs of a fan-out) and down (known missing from one), with
// the epoch of that split.
func (ms *members) targets() (live, down []hop, epoch uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for id, m := range ms.byID {
		switch {
		case m.serving():
			live = append(live, hop{id, m.url})
		case m.deliveredTo == "":
			down = append(down, hop{id, m.url})
		}
	}
	return live, down, ms.ring.epoch
}

// view returns every member and the epoch they are the membership of.
func (ms *members) view() ([]memberView, uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]memberView, 0, len(ms.byID))
	for id, m := range ms.byID {
		out = append(out, memberView{hop{id, m.url}, m.state})
	}
	return out, ms.ring.epoch
}

// plan snapshots the ring and every member's URL for a migration to plan
// against; both are the caller's to change.
func (ms *members) plan() (*Ring, map[string]string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	urls := make(map[string]string, len(ms.byID))
	for id, m := range ms.byID {
		urls[id] = m.url
	}
	return ms.ring.clone(), urls
}
