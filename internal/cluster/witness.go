package cluster

import (
	"context"
	"net/http"
	"slices"
	"sort"

	"profileme/internal/api"
)

// This is the router's half of witness replication (the holder's is
// internal/server/witness.go, the design DESIGN.md §12): the forward of
// each acknowledged submission, and the anti-entropy sweep.
//
// Witness forwarding is asynchronous and best-effort by design: the
// client's 202 must not wait on a second network hop, and a missed
// witness copy only narrows the disk-loss recovery set, never the
// crash-recovery guarantee (that is the WAL's). WitnessSync exists so
// tests can make the forward synchronous and deterministic.

// forwardWitness ships one accepted submission body, as it arrived, to
// the witness holder of c, which carries the shard's captured total from
// the owner's 202. Asynchronous unless cfg.WitnessSync.
func (rt *Router) forwardWitness(c api.WitnessCopy, body []byte) {
	holder, ok := rt.members.witness(c.Shard, c.Origin)
	if !ok {
		return // single-instance tier: nobody to witness
	}
	if rt.cfg.WitnessSync {
		rt.sendWitness(context.Background(), holder, c, body)
		return
	}
	rt.witnessWG.Add(1)
	go func() {
		defer rt.witnessWG.Done()
		rt.sendWitness(context.Background(), holder, c, body)
	}()
}

// WitnessFlush waits for every in-flight asynchronous witness forward.
func (rt *Router) WitnessFlush() { rt.witnessWG.Wait() }

func (rt *Router) sendWitness(ctx context.Context, holder hop, c api.WitnessCopy, body []byte) {
	status, _, err := roundTrip(ctx, rt.client, http.MethodPost, holder.url+"/v1/witness?"+c.Query(), body, rt.cfg.submitDeadline, 4096)
	if status == 0 {
		rt.count(&rt.stats.WitnessFailed)
		rt.log.Warn("witness forward failed", "shard", c.Shard, "holder", holder.id, "err", err)
		return
	}
	if status != http.StatusAccepted {
		rt.count(&rt.stats.WitnessFailed)
		rt.log.Warn("witness forward failed", "shard", c.Shard, "holder", holder.id, "status", status)
		return
	}
	rt.count(&rt.stats.WitnessSent)
}

// AntiEntropyReport summarizes one reconciliation sweep.
type AntiEntropyReport struct {
	// Resubmitted counts witness copies replayed to an owner that was
	// missing them (the disk-loss recovery path doing its job).
	Resubmitted int
	// Pruned counts witness copies released because the owner provably
	// holds the shard (pre-existing or just resubmitted).
	Pruned int
	// Errors counts legs that failed (unreachable holder/owner, refused
	// resubmission); the next sweep retries them.
	Errors int
}

// AntiEntropy runs one reconciliation sweep: for every reachable
// witness holder, compare each origin's witnessed shards against that
// origin's live admission ledger, resubmit the difference to the
// origin, and prune copies the origin holds. Safe to run concurrently
// with live traffic — owner-side dedupe absorbs races — and idempotent:
// a second sweep over a converged tier does nothing.
func (rt *Router) AntiEntropy(ctx context.Context) AntiEntropyReport {
	var rep AntiEntropyReport
	live, _, _ := rt.members.targets()
	urls := make(map[string]string, len(live))
	for _, h := range live {
		urls[h.id] = h.url
	}
	for _, holder := range live {
		var held api.WitnessLedger
		if err := rt.getJSON(ctx, holder.url+"/v1/witness/ledger", &held); err != nil {
			rep.Errors++
			continue
		}
		origins := make([]string, 0, len(held.Witness))
		for origin := range held.Witness {
			origins = append(origins, origin)
		}
		sort.Strings(origins)
		for _, origin := range origins {
			ownerBase := urls[origin]
			if ownerBase == "" {
				continue // owner absent: keep the copies, retry next sweep
			}
			var owner api.Ledger // its Shards are sorted
			if err := rt.getJSON(ctx, ownerBase+"/v1/ledger", &owner); err != nil {
				rep.Errors++
				continue
			}
			var prune []string
			for _, row := range held.Witness[origin] {
				if _, held := slices.BinarySearch(owner.Shards, row.Shard); held {
					prune = append(prune, row.Shard)
					continue
				}
				if err := rt.resubmitWitness(ctx, holder.url, ownerBase, api.WitnessCopy{Origin: origin, Shard: row.Shard}); err != nil {
					rep.Errors++
					rt.log.Warn("witness resubmit failed", "instance", origin, "shard", row.Shard, "err", err)
					continue
				}
				rep.Resubmitted++
				prune = append(prune, row.Shard)
			}
			if len(prune) > 0 {
				n, err := rt.pruneWitness(ctx, holder.url, origin, prune)
				if err != nil {
					rep.Errors++
					continue
				}
				rep.Pruned += n
			}
		}
	}
	rt.statsMu.Lock()
	rt.stats.AntiEntropyRuns++
	rt.stats.AntiEntropyResubmits += uint64(rep.Resubmitted)
	rt.statsMu.Unlock()
	return rep
}

// resubmitWitness fetches one stored body from the holder and replays
// it to the owner's /v1/submit. A 202 — fresh or duplicate — means the
// owner now holds the shard (and its new WAL holds the record). A copy
// is fetched whole, up to the submission bound, or not at all.
func (rt *Router) resubmitWitness(ctx context.Context, holderBase, ownerBase string, c api.WitnessCopy) error {
	body, err := rt.get(ctx, holderBase+"/v1/witness/fetch?"+c.Query(), rt.cfg.MaxBodyBytes)
	if err != nil {
		return err
	}
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, ownerBase+"/v1/submit", body, rt.cfg.submitDeadline, 4096)
	switch {
	case status == 0:
		return err
	case status != http.StatusAccepted:
		return answered("owner", status, raw)
	}
	return nil
}

func (rt *Router) pruneWitness(ctx context.Context, holderBase, origin string, shards []string) (int, error) {
	var ack api.Pruned
	err := rt.postJSON(ctx, "prune", holderBase+"/v1/witness/prune", api.WitnessPrune{Origin: origin, Shards: shards}, &ack)
	return ack.Pruned, err
}
