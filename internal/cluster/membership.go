package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// Elastic membership: the router grows and shrinks the collector tier
// without restarting any instance, while submits and queries keep
// flowing. The safety argument rests on three mechanisms that already
// guard the steady state, composed rather than reinvented:
//
//   - ledger adoption (/v1/ledger/adopt): a moved shard's dedupe
//     obligation is installed at its NEW ring owner before the ring
//     commits, so a client retry that follows the new placement answers
//     202+duplicate instead of double-merging;
//   - placement pins: a shard acknowledged at instance X is retried at X
//     first whatever the ring says, covering the fetch-to-commit window
//     where a shard was admitted at the old owner after the adoption
//     sweep read its ledger;
//   - the handoff envelope (PR 6/7): a scale-in ships the donor's whole
//     aggregate + ledger to one receiver, WAL-durable there before the
//     donor quarantines its own books, deduped by content digest against
//     redelivery.
//
// Both operations are serialized (memMu) and crash-safe by idempotence:
// every step before the ring commit can be re-run — adoption skips
// already-admitted ids, export returns the cached byte-identical
// envelope, handoff delivery dedupes by digest, confirm is a no-op the
// second time. A membership call that failed mid-way is simply retried;
// the ring (and thus the epoch clients see) changes only at the end.
type MigrationReport struct {
	// Kind is "add" or "remove"; Instance the subject id.
	Kind     string `json:"kind"`
	Instance string `json:"instance"`
	// Receiver is where a removed donor's aggregate landed (remove only).
	Receiver string `json:"receiver,omitempty"`
	// ShardsMoved counts shard ids whose ring ownership changed;
	// Adopted counts adoption acks actually installed (≤ ShardsMoved:
	// ids already admitted at their new owner are skipped).
	ShardsMoved int `json:"shards_moved"`
	Adopted     int `json:"adopted"`
	// CapturedMoved is the captured-sample total the receiver
	// acknowledged for a removed donor's aggregate.
	CapturedMoved uint64 `json:"captured_moved,omitempty"`
	// Epoch is the ring epoch after the commit.
	Epoch uint64 `json:"epoch"`
}

// MigrationStatus is the /v1/stats "migration" section: what the
// membership engine is doing right now and what it last did.
type MigrationStatus struct {
	Active   bool   `json:"active"`
	Kind     string `json:"kind,omitempty"`
	Instance string `json:"instance,omitempty"`
	// Phase walks export → deliver → adopt → confirm → commit on removal
	// and adopt → commit → sweep on addition; "" when idle.
	Phase     string `json:"phase,omitempty"`
	Completed uint64 `json:"completed"`
	// LastError is the most recent failed operation's error ("" after a
	// success); the operation is retryable — see OPERATIONS.md.
	LastError string `json:"last_error,omitempty"`
}

// migration is the router's mutable migration-progress state.
type migration struct {
	mu        sync.Mutex
	status    MigrationStatus
	completed uint64
}

func (m *migration) begin(kind, instance string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status = MigrationStatus{Active: true, Kind: kind, Instance: instance, Completed: m.completed}
}

func (m *migration) phase(p string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status.Phase = p
}

func (m *migration) end(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status.Active = false
	m.status.Phase = ""
	if err != nil {
		m.status.LastError = err.Error()
	} else {
		m.status.LastError = ""
		m.completed++
	}
	m.status.Completed = m.completed
}

func (m *migration) snapshot() MigrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status
}

// AddInstance grows the tier by one instance without restarting
// anything. Sequence:
//
//  1. compute the would-be ring and the shard ids that move to the new
//     instance (every current instance's admitted ledger is consulted);
//  2. adopt those ids at the new instance (WAL-durable there) while the
//     OLD ring still routes — the new instance takes no traffic yet;
//  3. commit the ring (epoch bump): submits now route to the new owner,
//     queries fan to everyone, and retries of moved shards dedupe
//     against the adopted ledger;
//  4. one post-commit sweep re-reads the donors' ledgers and adopts
//     anything admitted during the fetch-to-commit window (placement
//     pins already cover those shards' retries; the sweep makes the
//     dedupe survive a router restart that loses the pins).
//
// Re-registering a known id just updates its URL (a replaced process).
func (rt *Router) AddInstance(ctx context.Context, id, baseURL string) (*MigrationReport, error) {
	if id == "" || baseURL == "" {
		return nil, errors.New("cluster: add needs an instance id and url")
	}
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	if rt.ring.has(id) {
		rt.SetInstance(id, baseURL)
		return &MigrationReport{Kind: "add", Instance: id, Epoch: rt.ring.epoch()}, nil
	}
	rt.migration.begin("add", id)
	rep, err := rt.addInstanceLocked(ctx, id, baseURL)
	rt.migration.end(err)
	return rep, err
}

func (rt *Router) addInstanceLocked(ctx context.Context, id, baseURL string) (*MigrationReport, error) {
	oldRing := rt.ring.clone()
	newRing := oldRing.Clone()
	newRing.Add(id)
	// Register the URL early so adoption can reach the newcomer; it is
	// not in the ring yet, so no submit or query routes to it.
	rt.urlMu.Lock()
	rt.urls[id] = baseURL
	rt.urlMu.Unlock()
	rep := &MigrationReport{Kind: "add", Instance: id}

	rt.migration.phase("adopt")
	moved, adopted, err := rt.adoptMoved(ctx, oldRing, newRing, oldRing.Instances())
	if err != nil {
		// Nothing committed: drop the URL again and let the operator
		// retry (adoption already installed is idempotent on re-run).
		rt.urlMu.Lock()
		delete(rt.urls, id)
		rt.urlMu.Unlock()
		return nil, fmt.Errorf("cluster: add %s: %w", id, err)
	}
	rep.ShardsMoved, rep.Adopted = moved, adopted

	rt.migration.phase("commit")
	rt.ring.mu.Lock()
	rt.ring.r.Add(id)
	rep.Epoch = rt.ring.r.Epoch()
	rt.ring.mu.Unlock()
	rt.health.ensure(id)
	rt.logf("membership: added %s at %s (epoch %d, %d shard ids adopted)", id, baseURL, rep.Epoch, adopted)

	// Post-commit sweep for the fetch-to-commit window. Failure here is
	// logged, not fatal: the pins cover those shards' retries, and the
	// next membership operation (or a manual adopt) closes the gap.
	rt.migration.phase("sweep")
	if _, n, err := rt.adoptMoved(ctx, oldRing, newRing, oldRing.Instances()); err != nil {
		rt.logf("membership: post-commit adoption sweep for %s failed: %v (retries stay safe via placement pins)", id, err)
	} else if n > 0 {
		rep.Adopted += n
		rt.logf("membership: post-commit sweep adopted %d more shard ids for %s", n, id)
	}
	return rep, nil
}

// adoptMoved reads each donor's admitted ledger, computes the shard ids
// whose owner differs between the two rings, and installs each moved
// id's dedupe obligation at its NEW owner. Returns (moved, adopted):
// ids whose ownership changed, and adoption acks actually installed.
func (rt *Router) adoptMoved(ctx context.Context, oldRing, newRing *Ring, donors []string) (moved, adopted int, err error) {
	for _, donor := range donors {
		base := rt.urlOf(donor)
		if base == "" {
			return moved, adopted, fmt.Errorf("no URL for instance %s", donor)
		}
		admitted, err := rt.fetchAdmitted(ctx, base)
		if err != nil {
			return moved, adopted, fmt.Errorf("read ledger of %s: %w", donor, err)
		}
		shards := make([]string, 0, len(admitted))
		for sh := range admitted {
			shards = append(shards, sh)
		}
		sort.Strings(shards)
		byOwner := make(map[string][]string)
		for sh, owner := range MovedKeys(oldRing, newRing, shards) {
			// Only ids this donor actually holds move FROM it; a shard in
			// its ledger by adoption keeps its original provenance at the
			// new owner regardless — dedupe is what matters, not lineage.
			byOwner[owner] = append(byOwner[owner], sh)
		}
		for owner, batch := range byOwner {
			sort.Strings(batch)
			moved += len(batch)
			n, err := rt.postAdopt(ctx, owner, donor, batch)
			if err != nil {
				return moved, adopted, fmt.Errorf("adopt %d ids at %s: %w", len(batch), owner, err)
			}
			adopted += n
		}
	}
	return moved, adopted, nil
}

// postAdopt installs a batch of shard ids at an instance's adoption
// endpoint and returns how many were newly adopted there.
func (rt *Router) postAdopt(ctx context.Context, ownerID, from string, shards []string) (int, error) {
	base := rt.urlOf(ownerID)
	if base == "" {
		return 0, fmt.Errorf("no URL for instance %s", ownerID)
	}
	body, err := json.Marshal(map[string]any{"from": from, "shards": shards})
	if err != nil {
		return 0, err
	}
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/ledger/adopt", body, rt.cfg.SubmitDeadline, 1<<20)
	if status == 0 {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, answered("adopt at "+ownerID, status, raw)
	}
	var ack struct {
		Adopted int `json:"adopted"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, fmt.Errorf("adopt ack unparseable: %w", err)
	}
	return ack.Adopted, nil
}

// RemoveInstance shrinks the tier by one instance, migrating its whole
// aggregate and ledger before the ring forgets it. Sequence:
//
//  1. mark the donor draining (new submits steer to successors; pinned
//     shards still reach its ledger for dedupe) and POST its
//     /v1/handoff/export — the donor seals, flushes, and returns its
//     serialized aggregate + ledger (cached, byte-identical on retry);
//  2. deliver the envelope along the post-removal ring order until a
//     receiver's /v1/handoff acks it WAL-durably (redelivery after a
//     lost ack dedupes by content digest);
//  3. adopt the donor's shard ids at their NEW ring owners (those not
//     already covered by the receiver's handoff ledger), so retries
//     following the new placement dedupe wherever they land;
//  4. POST the donor's /v1/handoff/confirm — it marks handed off and
//     quarantines its WAL (a restart over it would double-count);
//  5. commit: remove from the ring (epoch bump), forget URL and health,
//     repoint the donor's placement pins at the receiver.
//
// An unreachable donor refuses the removal: its books cannot be
// exported, and silently dropping them would break the conservation
// sum. The disaster path (dead disk, no export possible) is witness
// anti-entropy, not membership — see OPERATIONS.md.
func (rt *Router) RemoveInstance(ctx context.Context, id string) (*MigrationReport, error) {
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	if !rt.ring.has(id) {
		return nil, fmt.Errorf("cluster: remove %s: not a member", id)
	}
	if rt.ring.size() <= 1 {
		return nil, errors.New("cluster: refusing to remove the last instance")
	}
	rt.migration.begin("remove", id)
	rep, err := rt.removeInstanceLocked(ctx, id)
	rt.migration.end(err)
	return rep, err
}

func (rt *Router) removeInstanceLocked(ctx context.Context, id string) (*MigrationReport, error) {
	base := rt.urlOf(id)
	if base == "" {
		return nil, fmt.Errorf("cluster: remove %s: no URL", id)
	}
	oldRing := rt.ring.clone()
	newRing := oldRing.Clone()
	newRing.Remove(id)
	rep := &MigrationReport{Kind: "remove", Instance: id}

	rt.migration.phase("export")
	rt.health.reportDraining(id)
	envelope, err := rt.exportHandoff(ctx, base)
	if err != nil {
		return nil, fmt.Errorf("cluster: remove %s: export: %w (donor unchanged, retry or restart it to roll back)", id, err)
	}
	var env struct {
		Shards []string `json:"shards"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, fmt.Errorf("cluster: remove %s: export envelope unparseable: %w", id, err)
	}
	rep.ShardsMoved = len(env.Shards)

	// Deliver along the post-removal ring order: the new owner of the
	// donor's key range first, then the rest as fallbacks. The SAME
	// bytes are sent to every candidate and on every retry — that is
	// the receiver-side dedupe contract.
	rt.migration.phase("deliver")
	var receiver string
	var lastErr error
	for _, cand := range newRing.Successors(id, newRing.Size()) {
		candBase := rt.urlOf(cand)
		if candBase == "" {
			continue
		}
		captured, err := SendHandoff(ctx, rt.client, candBase, envelope)
		if err != nil {
			lastErr = err
			rt.logf("membership: handoff of %s to %s failed: %v", id, cand, err)
			continue
		}
		receiver, rep.Receiver, rep.CapturedMoved = cand, cand, captured
		break
	}
	if receiver == "" {
		if lastErr == nil {
			lastErr = errors.New("no reachable receiver")
		}
		return nil, fmt.Errorf("cluster: remove %s: deliver: %w (donor sealed; retry, or restart the donor to roll back)", id, lastErr)
	}

	// The receiver's handoff installed every donor shard in ITS ledger;
	// ids whose new ring owner is a different instance need adoption
	// there too, or a retry following the new placement would re-merge.
	rt.migration.phase("adopt")
	byOwner := make(map[string][]string)
	for _, sh := range env.Shards {
		owner, ok := newRing.Owner(sh)
		if !ok || owner == receiver {
			continue
		}
		byOwner[owner] = append(byOwner[owner], sh)
	}
	for owner, batch := range byOwner {
		sort.Strings(batch)
		n, err := rt.postAdopt(ctx, owner, id, batch)
		if err != nil {
			return nil, fmt.Errorf("cluster: remove %s: adopt at %s: %w (retry the removal; every step so far is idempotent)", id, owner, err)
		}
		rep.Adopted += n
	}

	rt.migration.phase("confirm")
	if err := rt.confirmHandoff(ctx, base); err != nil {
		return nil, fmt.Errorf("cluster: remove %s: confirm: %w (retry the removal; delivery and adoption dedupe)", id, err)
	}

	rt.migration.phase("commit")
	rt.ring.mu.Lock()
	rt.ring.r.Remove(id)
	rep.Epoch = rt.ring.r.Epoch()
	rt.ring.mu.Unlock()
	rt.urlMu.Lock()
	delete(rt.urls, id)
	rt.urlMu.Unlock()
	rt.health.forget(id)
	// Repoint the donor's pins at the receiver: it holds the donor's
	// ledger (and samples), so retries of donor-acknowledged shards keep
	// deduping without a 503 detour through a dead URL.
	rt.placedMu.Lock()
	repointed := 0
	for sh, inst := range rt.placed {
		if inst == id {
			rt.placed[sh] = receiver
			repointed++
		}
	}
	rt.placedMu.Unlock()
	rt.logf("membership: removed %s (epoch %d): %d captured samples migrated to %s, %d shard ids moved (%d adopted elsewhere, %d pins repointed)",
		id, rep.Epoch, rep.CapturedMoved, receiver, rep.ShardsMoved, rep.Adopted, repointed)
	return rep, nil
}

// exportHandoff POSTs a donor's export endpoint and returns the
// serialized envelope bytes (byte-identical across retries).
func (rt *Router) exportHandoff(ctx context.Context, base string) ([]byte, error) {
	// A handoff envelope is a whole aggregate: bound generously (the
	// receiving side's MaxHandoffBytes is the real limit).
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/handoff/export", nil, 0, 256<<20)
	if err == nil && status != http.StatusOK {
		err = answered("export", status, raw)
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// confirmHandoff POSTs a donor's confirm endpoint (idempotent).
func (rt *Router) confirmHandoff(ctx context.Context, base string) error {
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/handoff/confirm", nil, 0, 4096)
	switch {
	case status == 0:
		return err
	case status != http.StatusOK:
		return answered("confirm", status, raw)
	}
	return nil
}

// ---- membership HTTP surface ----

// handleMembership serves the current membership view: epoch, each
// member's URL and health state, and migration progress.
func (rt *Router) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeErr(w, http.StatusMethodNotAllowed, "method", "GET only", nil)
		return
	}
	states := rt.health.snapshot()
	members := make(map[string]map[string]any)
	for id, base := range rt.instanceURLs() {
		members[id] = map[string]any{"url": base, "state": states[id].String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     rt.ring.epoch(),
		"instances": members,
		"migration": rt.migration.snapshot(),
	})
}

// handleMembershipAdd: POST {"id": "c5", "url": "http://..."} runs
// AddInstance and returns its report.
func (rt *Router) handleMembershipAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, "method", "POST only", nil)
		return
	}
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		rt.writeErr(w, http.StatusBadRequest, "malformed", err.Error(), nil)
		return
	}
	rep, err := rt.AddInstance(r.Context(), req.ID, req.URL)
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, "migration-failed", err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleMembershipRemove: POST {"id": "c2"} runs RemoveInstance and
// returns its report.
func (rt *Router) handleMembershipRemove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, "method", "POST only", nil)
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		rt.writeErr(w, http.StatusBadRequest, "malformed", err.Error(), nil)
		return
	}
	rep, err := rt.RemoveInstance(r.Context(), req.ID)
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, "migration-failed", err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleResolve answers where a shard's submission would be routed right
// now: the pinned placement when one exists (the ledger that can dedupe
// a retry), otherwise the ring owner — plus the epoch, so a client can
// cache the answer and detect staleness via the wrong-owner 409.
func (rt *Router) handleResolve(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	if shard == "" {
		rt.writeErr(w, http.StatusBadRequest, "param", "shard parameter required", nil)
		return
	}
	owner, ok := rt.ring.owner(shard)
	if !ok {
		rt.writeErr(w, http.StatusServiceUnavailable, "no-instances", "ring is empty", nil)
		return
	}
	resp := map[string]any{
		"shard": shard,
		"epoch": rt.ring.epoch(),
	}
	if pinned := rt.placedInstance(shard); pinned != "" && rt.urlOf(pinned) != "" {
		resp["instance"] = pinned
		resp["url"] = rt.urlOf(pinned)
		resp["pinned"] = true
		resp["ring_owner"] = owner
	} else {
		resp["instance"] = owner
		resp["url"] = rt.urlOf(owner)
	}
	writeJSON(w, http.StatusOK, resp)
}
