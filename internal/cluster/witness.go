package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
)

// Witness replication closes the durability gap the per-instance WAL
// cannot: total disk loss. After an instance acknowledges a submission
// (202), the router forwards the raw body to the ring successor of the
// acknowledging instance as a witness copy, tagged with the origin's
// id. The copy is pure redundancy — the origin's WAL remains the system
// of record — until an origin comes back empty-handed, at which point
// the anti-entropy sweep compares every witness ledger against the
// owners' admission ledgers (/v1/ledger), resubmits what an owner is
// missing (owner-side dedupe makes a raced retry a 202+duplicate, so
// the sweep is idempotent), and prunes copies the owner provably holds.
//
// Witness forwarding is asynchronous and best-effort by design: the
// client's 202 must not wait on a second network hop, and a missed
// witness copy only narrows the disk-loss recovery set, never the
// crash-recovery guarantee (that is the WAL's). WitnessSync exists so
// tests can make the forward synchronous and deterministic.

// forwardWitness ships one accepted submission body to the witness
// holder for (shard, origin), tagged with the shard's captured-sample
// total from the owner's 202. Asynchronous unless cfg.WitnessSync.
func (rt *Router) forwardWitness(shard, origin string, captured uint64, body []byte) {
	holder, ok := rt.members.witness(shard, origin)
	if !ok {
		return // single-instance tier: nobody to witness
	}
	if rt.cfg.WitnessSync {
		rt.sendWitness(context.Background(), holder, shard, origin, captured, body)
		return
	}
	rt.witnessWG.Add(1)
	go func() {
		defer rt.witnessWG.Done()
		rt.sendWitness(context.Background(), holder, shard, origin, captured, body)
	}()
}

// WitnessFlush waits for every in-flight asynchronous witness forward.
func (rt *Router) WitnessFlush() { rt.witnessWG.Wait() }

func (rt *Router) sendWitness(ctx context.Context, holder hop, shard, origin string, captured uint64, body []byte) {
	payload, err := json.Marshal(map[string]any{
		"origin":   origin,
		"shard":    shard,
		"captured": captured,
		"body":     body, // []byte marshals as base64
	})
	if err != nil {
		rt.count(&rt.stats.WitnessFailed)
		return
	}
	status, _, err := roundTrip(ctx, rt.client, http.MethodPost, holder.url+"/v1/witness", payload, rt.cfg.submitDeadline, 4096)
	if status == 0 {
		rt.count(&rt.stats.WitnessFailed)
		rt.logf("witness shard %s: holder %s unreachable (%v)", shard, holder.id, err)
		return
	}
	if status != http.StatusAccepted {
		rt.count(&rt.stats.WitnessFailed)
		rt.logf("witness shard %s: holder %s refused (%d)", shard, holder.id, status)
		return
	}
	rt.count(&rt.stats.WitnessSent)
}

// AntiEntropyReport summarizes one reconciliation sweep.
type AntiEntropyReport struct {
	// HoldersScanned counts instances whose witness ledger was read.
	HoldersScanned int `json:"holders_scanned"`
	// OriginsChecked counts (holder, origin) ledger comparisons.
	OriginsChecked int `json:"origins_checked"`
	// Resubmitted counts witness copies replayed to an owner that was
	// missing them (the disk-loss recovery path doing its job).
	Resubmitted int `json:"resubmitted"`
	// Pruned counts witness copies released because the owner provably
	// holds the shard (pre-existing or just resubmitted).
	Pruned int `json:"pruned"`
	// Errors counts legs that failed (unreachable holder/owner, refused
	// resubmission); the next sweep retries them.
	Errors int `json:"errors"`
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
		ledger, err := rt.fetchWitnessLedger(ctx, holder.url)
		if err != nil {
			rep.Errors++
			continue
		}
		rep.HoldersScanned++
		origins := make([]string, 0, len(ledger))
		for origin := range ledger {
			origins = append(origins, origin)
		}
		sort.Strings(origins)
		for _, origin := range origins {
			ownerBase := urls[origin]
			if ownerBase == "" {
				continue // owner absent: keep the copies, retry next sweep
			}
			rep.OriginsChecked++
			admitted, err := rt.fetchAdmitted(ctx, ownerBase)
			if err != nil {
				rep.Errors++
				continue
			}
			var prune []string
			for _, row := range ledger[origin] {
				if admitted[row.Shard] {
					prune = append(prune, row.Shard)
					continue
				}
				if err := rt.resubmitWitness(ctx, holder.url, ownerBase, origin, row.Shard); err != nil {
					rep.Errors++
					rt.logf("anti-entropy: resubmit %s/%s to %s failed (%v)", origin, row.Shard, origin, err)
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

// witnessRow is the part of one /v1/witness/ledger entry a sweep reads.
type witnessRow struct {
	Shard string `json:"shard"`
}

// fetchWitnessLedger reads a holder's witness ledger: origin → rows.
func (rt *Router) fetchWitnessLedger(ctx context.Context, base string) (map[string][]witnessRow, error) {
	body, err := rt.getJSON(ctx, base+"/v1/witness/ledger")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Witness map[string][]witnessRow `json:"witness"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Witness, nil
}

func (rt *Router) fetchAdmitted(ctx context.Context, base string) (map[string]bool, error) {
	body, err := rt.getJSON(ctx, base+"/v1/ledger")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Shards []string `json:"shards"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(resp.Shards))
	for _, sh := range resp.Shards {
		out[sh] = true
	}
	return out, nil
}

// resubmitWitness fetches one stored body from the holder and replays
// it to the owner's /v1/submit. A 202 — fresh or duplicate — means the
// owner now holds the shard (and its new WAL holds the record).
func (rt *Router) resubmitWitness(ctx context.Context, holderBase, ownerBase, origin, shard string) error {
	fetchURL := holderBase + "/v1/witness/fetch?origin=" + url.QueryEscape(origin) + "&shard=" + url.QueryEscape(shard)
	body, err := rt.getJSON(ctx, fetchURL)
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
	payload, err := json.Marshal(map[string]any{"origin": origin, "shards": shards})
	if err != nil {
		return 0, err
	}
	status, body, err := roundTrip(ctx, rt.client, http.MethodPost, holderBase+"/v1/witness/prune", payload, rt.cfg.submitDeadline, 4096)
	if status == 0 {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, answered("prune", status, body)
	}
	var pr struct {
		Pruned int `json:"pruned"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return 0, err
	}
	return pr.Pruned, nil
}

// getJSON fetches one URL under the query deadline and returns the body
// on any 200; non-200 is an error.
func (rt *Router) getJSON(ctx context.Context, u string) ([]byte, error) {
	status, body, err := roundTrip(ctx, rt.client, http.MethodGet, u, nil, rt.cfg.QueryDeadline, 8<<20)
	if err == nil && status != http.StatusOK {
		err = answered("GET "+u, status, body)
	}
	if err != nil {
		return nil, err
	}
	return body, nil
}
