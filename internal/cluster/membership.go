package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"

	"profileme/internal/api"
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
//   - the handoff envelope: a scale-in ships the donor's whole
//     aggregate + ledger to one receiver, WAL-durable there before the
//     donor retires its own books, deduped by content digest against
//     redelivery.
//
// Both operations are serialized (memMu) and crash-safe by idempotence:
// every step before the ring commit can be re-run — adoption skips
// already-admitted ids, export returns the cached byte-identical
// envelope, handoff delivery dedupes by digest, confirm is a no-op the
// second time. A membership call that failed mid-way is simply retried;
// the ring (and thus the epoch clients see) changes only at the end.

// migrationStatus is the /v1/stats "migration" section: what the
// membership engine is doing right now and what it last did.
type migrationStatus struct {
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
	mu     sync.Mutex
	status migrationStatus
}

func (m *migration) begin(kind, instance string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status = migrationStatus{Active: true, Kind: kind, Instance: instance, Completed: m.status.Completed}
}

func (m *migration) phase(p string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status.Phase = p
}

// end closes the operation, logging a failure with its phase and epoch.
func (m *migration) end(log *slog.Logger, epoch uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		log.Warn("migration failed", "kind", m.status.Kind, "instance", m.status.Instance,
			"phase", m.status.Phase, "epoch", epoch, "err", err)
	}
	m.status.Active = false
	m.status.Phase = ""
	if err != nil {
		m.status.LastError = err.Error()
	} else {
		m.status.LastError = ""
		m.status.Completed++
	}
}

func (m *migration) snapshot() migrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status
}

// addInstance grows the tier by one instance without restarting
// anything. Sequence:
//
//  1. compute the would-be ring and the shard ids that move to the new
//     instance (every current instance's admitted ledger is consulted);
//  2. adopt those ids at the new instance (WAL-durable there) while it is
//     still a stranger to the membership table: only this migration knows
//     its URL, so no submit, query leg, probe or /v1/membership answer
//     can reach or name it;
//  3. commit (epoch bump): the instance becomes a member in one step —
//     submits now route to it, queries fan to it, and retries of moved
//     shards dedupe against the adopted ledger;
//  4. one post-commit sweep re-reads the donors' ledgers and adopts
//     anything admitted during the fetch-to-commit window (placement
//     pins already cover those shards' retries; the sweep makes the
//     dedupe survive a router restart that loses the pins).
//
// Re-registering a known id just updates its URL (a replaced process).
func (rt *Router) addInstance(ctx context.Context, id, baseURL string) (*api.MigrationReport, error) {
	if id == "" || baseURL == "" {
		return nil, errors.New("cluster: add needs an instance id and url")
	}
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	oldRing, urls := rt.members.plan()
	if rt.members.reregister(id, baseURL) {
		rt.observe(id, sigAdmits, "path", "/v1/membership/add")
		return &api.MigrationReport{Kind: "add", Instance: id, Epoch: oldRing.epoch}, nil
	}
	rt.migration.begin("add", id)
	rep, err := rt.addInstanceLocked(ctx, id, baseURL, oldRing, urls)
	rt.migration.end(rt.log, oldRing.epoch, err)
	return rep, err
}

func (rt *Router) addInstanceLocked(ctx context.Context, id, baseURL string, oldRing *Ring, urls map[string]string) (*api.MigrationReport, error) {
	donors := oldRing.ids()
	newRing := oldRing.clone()
	newRing.Add(id)
	urls[id] = baseURL // in this migration's copy only
	rep := &api.MigrationReport{Kind: "add", Instance: id}

	rt.migration.phase("adopt")
	moved, adopted, err := rt.adoptMoved(ctx, oldRing, newRing, donors, urls)
	if err != nil {
		// Nothing committed, nothing to undo: the operator retries
		// (adoption already installed is idempotent on re-run).
		return nil, fmt.Errorf("cluster: add %s: %w", id, err)
	}
	rep.ShardsMoved, rep.Adopted = moved, adopted

	rt.migration.phase("commit")
	rep.Epoch = rt.members.commitAdd(id, baseURL)
	rt.log.Info("instance added", "instance", id, "url", baseURL, "epoch", rep.Epoch, "adopted", adopted)

	// Post-commit sweep for the fetch-to-commit window. Failure here is
	// logged, not fatal: the pins cover those shards' retries, and the
	// next membership operation (or a manual adopt) closes the gap.
	rt.migration.phase("sweep")
	if _, n, err := rt.adoptMoved(ctx, oldRing, newRing, donors, urls); err != nil {
		rt.log.Warn("adoption sweep failed", "instance", id, "err", err)
	} else if n > 0 {
		rep.Adopted += n
		rt.log.Info("adoption sweep", "instance", id, "adopted", n)
	}
	return rep, nil
}

// adoptMoved reads each donor's admitted ledger, computes the shard ids
// whose owner differs between the two rings, and installs each moved
// id's dedupe obligation at its NEW owner. urls locates every instance of
// either ring. Returns (moved, adopted): ids whose ownership changed, and
// adoption acks actually installed.
func (rt *Router) adoptMoved(ctx context.Context, oldRing, newRing *Ring, donors []string, urls map[string]string) (moved, adopted int, err error) {
	for _, donor := range donors {
		var led api.Ledger
		if err := rt.getJSON(ctx, urls[donor]+"/v1/ledger", &led); err != nil {
			return moved, adopted, fmt.Errorf("read ledger of %s: %w", donor, err)
		}
		byOwner := make(map[string][]string)
		for sh, owner := range movedKeys(oldRing, newRing, led.Shards) {
			// Only ids this donor actually holds move FROM it; a shard in
			// its ledger by adoption keeps its original provenance at the
			// new owner regardless — dedupe is what matters, not lineage.
			byOwner[owner] = append(byOwner[owner], sh)
		}
		for owner, batch := range byOwner {
			sort.Strings(batch)
			moved += len(batch)
			n, err := rt.postAdopt(ctx, hop{owner, urls[owner]}, donor, batch)
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
func (rt *Router) postAdopt(ctx context.Context, owner hop, from string, shards []string) (int, error) {
	var ack api.AdoptAck
	err := rt.postJSON(ctx, "adopt at "+owner.id, owner.url+"/v1/ledger/adopt", api.Adopt{From: from, Shards: shards}, &ack)
	return ack.Adopted, err
}

// removeInstance shrinks the tier by one instance, migrating its whole
// aggregate and ledger before the ring forgets it. Sequence:
//
//  1. mark the donor draining (new submits steer to successors; pinned
//     shards still reach its ledger for dedupe) and POST its
//     /v1/handoff/export — the donor seals, flushes, and returns its
//     serialized aggregate + ledger (cached, byte-identical on retry);
//  2. deliver the envelope along the post-removal ring order until a
//     receiver's /v1/handoff acks it WAL-durably, passing a candidate
//     only on proof it did not apply it (redelivery to a candidate that
//     may have dedupes by content digest). From that ack the donor's
//     samples exist twice, so the table marks it delivered: no longer a
//     query leg, still offered the retries of shards pinned to it;
//  3. adopt the donor's shard ids at their NEW ring owners (those not
//     already covered by the receiver's handoff ledger), so retries
//     following the new placement dedupe wherever they land;
//  4. POST the donor's /v1/handoff/confirm — it retires: WAL directory
//     and checkpoint file set aside as *.handedoff (a restart over either
//     would double-count), final checkpoint disabled;
//  5. commit, in one step: off the ring (epoch bump), URL and health
//     forgotten, the donor's placement pins repointed at the receiver.
//
// An unreachable donor refuses the removal: its books cannot be
// exported, and silently dropping them would break the conservation
// sum. The disaster path (dead disk, no export possible) is witness
// anti-entropy, not membership — see OPERATIONS.md.
func (rt *Router) removeInstance(ctx context.Context, id string) (*api.MigrationReport, error) {
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	ring, urls := rt.members.plan()
	if urls[id] == "" {
		return nil, fmt.Errorf("cluster: remove %s: not a member", id)
	}
	if len(ring.instances) <= 1 {
		return nil, errors.New("cluster: refusing to remove the last instance")
	}
	rt.migration.begin("remove", id)
	epoch := ring.epoch // removeInstanceLocked turns ring into the post-removal one
	rep, err := rt.removeInstanceLocked(ctx, id, ring, urls)
	rt.migration.end(rt.log, epoch, err)
	return rep, err
}

// removeInstanceLocked takes the planning snapshot: the ring (its own
// copy, which it turns into the post-removal ring) and the members' URLs.
func (rt *Router) removeInstanceLocked(ctx context.Context, id string, newRing *Ring, urls map[string]string) (*api.MigrationReport, error) {
	newRing.remove(id)
	rep := &api.MigrationReport{Kind: "remove", Instance: id}

	rt.migration.phase("export")
	rt.observe(id, sigDraining, "kind", "removal", "path", "/v1/membership/remove")
	envelope, err := rt.exportHandoff(ctx, urls[id])
	if err != nil {
		return nil, fmt.Errorf("cluster: remove %s: export: %w (donor unchanged, retry or restart it to roll back)", id, err)
	}
	var env api.Adopt // the envelope's donor and shard ids
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, fmt.Errorf("cluster: remove %s: export envelope unparseable: %w", id, err)
	}
	rep.ShardsMoved = len(env.Shards)

	// Deliver along the post-removal ring order: the new owner of the
	// donor's key range first, then the rest as fallbacks. The SAME
	// bytes are sent to every candidate and on every retry — that is
	// the receiver-side dedupe contract, and it holds per receiver: once
	// one may have applied them, a retried removal redelivers to it and
	// to nobody else, or a second receiver would merge the donor's
	// samples a second time.
	rt.migration.phase("deliver")
	cands := newRing.successors(id, len(newRing.instances))
	if prev := rt.members.deliveredTo(id); prev != "" {
		cands = []string{prev}
	}
	var receiver string
	lastErr := errors.New("no reachable receiver")
	for _, cand := range cands {
		captured, refused, err := rt.sendHandoff(ctx, urls[cand], envelope)
		if err == nil {
			receiver, rep.Receiver, rep.CapturedMoved = cand, cand, captured
			break
		}
		rt.log.Warn("handoff failed", "instance", id, "receiver", cand, "err", err)
		if !refused {
			rt.members.offered(id, cand)
			return nil, fmt.Errorf("cluster: remove %s: deliver to %s: %w (it may hold the envelope; retry the removal, which redelivers there alone)", id, cand, err)
		}
		lastErr = err
	}
	if receiver == "" {
		return nil, fmt.Errorf("cluster: remove %s: deliver: %w (donor sealed; retry, or restart the donor to roll back)", id, lastErr)
	}
	rt.members.delivered(id, receiver)

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
		n, err := rt.postAdopt(ctx, hop{owner, urls[owner]}, id, batch)
		if err != nil {
			return nil, fmt.Errorf("cluster: remove %s: adopt at %s: %w (retry the removal; every step so far is idempotent)", id, owner, err)
		}
		rep.Adopted += n
	}

	rt.migration.phase("confirm")
	if err := rt.confirmHandoff(ctx, urls[id]); err != nil {
		return nil, fmt.Errorf("cluster: remove %s: confirm: %w (retry the removal; delivery and adoption dedupe)", id, err)
	}

	rt.migration.phase("commit")
	var repointed int
	rep.Epoch, repointed = rt.members.commitRemove(id, receiver)
	rt.log.Info("instance removed", "instance", id, "epoch", rep.Epoch, "receiver", receiver,
		"captured_moved", rep.CapturedMoved, "shards_moved", rep.ShardsMoved, "adopted", rep.Adopted, "repointed", repointed)
	return rep, nil
}

// exportHandoff POSTs a donor's export endpoint and returns the
// serialized envelope bytes (byte-identical across retries).
func (rt *Router) exportHandoff(ctx context.Context, base string) ([]byte, error) {
	// A handoff envelope is a whole aggregate: bound generously (the
	// receiver caps it at 8 × its -max-body, the real limit).
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/handoff/export", nil, 0, 256<<20)
	if err == nil && status != http.StatusOK {
		err = answered("export", status, raw)
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// sendHandoff ships the exported envelope to a receiver's /v1/handoff
// and returns the captured total it acknowledged. Only a 202 succeeds.
// refused reports a failure that proves the receiver did not apply the
// envelope, so the walk may move on: the dial failed, or it answered 400
// or 413 (refused the body), 409 (unmergeable) or 503 (itself draining
// or retired). Any other failure may follow an applied envelope — a 202
// lost on the way back, a 500 after a merge accounted as loss.
func (rt *Router) sendHandoff(ctx context.Context, base string, envelope []byte) (captured uint64, refused bool, err error) {
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/handoff", envelope, 0, 1<<20)
	var op *net.OpError
	switch {
	case status == 0:
		return 0, errors.As(err, &op) && op.Op == "dial", err
	case status != http.StatusAccepted:
		refused = status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge ||
			status == http.StatusConflict || status == http.StatusServiceUnavailable
		return 0, refused, answered("handoff receiver", status, raw)
	}
	var ack api.HandoffAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, false, fmt.Errorf("handoff ack unparseable: %w", err)
	}
	return ack.Captured, false, nil
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

// handleMembership serves the current membership view: the epoch, each
// member of that epoch with its URL and health state, and migration
// progress.
func (rt *Router) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "GET only")
		return
	}
	members, epoch := rt.members.view()
	instances := make(map[string]map[string]any, len(members))
	for _, m := range members {
		instances[m.id] = map[string]any{"url": m.url, "state": m.state.String()}
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":     epoch,
		"instances": instances,
		"migration": rt.migration.snapshot(),
	})
}

// handleMembershipChange serves a membership POST: {"id": "c5", "url":
// "http://..."} for /v1/membership/add (addInstance), {"id": "c2"} for
// /v1/membership/remove (removeInstance); the answer is the report.
func (rt *Router) handleMembershipChange(run func(ctx context.Context, id, url string) (*api.MigrationReport, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
			return
		}
		body, err := api.ReadBody(w, r, "request", 1<<16, nil)
		if err != nil {
			return
		}
		var req struct {
			ID  string `json:"id"`
			URL string `json:"url"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "malformed", err.Error())
			return
		}
		rep, err := run(r.Context(), req.ID, req.URL)
		if err != nil {
			api.WriteError(w, http.StatusServiceUnavailable, "migration-failed", err.Error())
			return
		}
		api.WriteJSON(w, http.StatusOK, rep)
	}
}

// handleResolve answers where a shard's submission would be routed right
// now: the pinned placement when one exists (the ledger that can dedupe
// a retry), otherwise the ring owner — plus the epoch, so a client can
// cache the answer and detect staleness via the wrong-owner 409.
func (rt *Router) handleResolve(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	if shard == "" {
		api.WriteError(w, http.StatusBadRequest, "param", "shard parameter required")
		return
	}
	owner, pinned, epoch, ok := rt.members.resolve(shard)
	if !ok {
		api.WriteError(w, http.StatusServiceUnavailable, "no-instances", "ring is empty")
		return
	}
	resp := map[string]any{"shard": shard, "epoch": epoch, "instance": owner.id, "url": owner.url}
	if pinned.id != "" {
		resp["instance"], resp["url"] = pinned.id, pinned.url
		resp["pinned"] = true
		resp["ring_owner"] = owner.id
	}
	api.WriteJSON(w, http.StatusOK, resp)
}
