package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"profileme/internal/api"
)

// Instance names one collector in the tier.
type Instance struct {
	// ID is the stable ring identity ("c0"); placement hashes it, so it
	// must survive restarts (the URL may change, the ID must not).
	ID string
	// BaseURL is the instance's HTTP root, e.g. "http://10.0.0.7:7070".
	BaseURL string
}

// RouterConfig parameterizes the tier frontend. Zero values get usable
// defaults.
type RouterConfig struct {
	// Instances is the initial tier membership (at least one).
	Instances []Instance
	// VNodes is the virtual-node count per instance (DefaultVNodes).
	VNodes int
	// Seed perturbs the virtual-node layout; the same seed re-derives
	// the same ring after a router restart.
	Seed uint64
	// QueryDeadline bounds each per-instance query leg (default 2s) —
	// the scatter-gather never waits longer than this for a straggler.
	QueryDeadline time.Duration
	// HedgeDelay is how long a query leg may lag before a hedged
	// duplicate request races it (default 250ms; the first response
	// wins). 0 uses the default; negative disables hedging.
	HedgeDelay time.Duration
	// FailureThreshold consecutive transport failures mark an instance
	// Down (default 3).
	FailureThreshold int
	// MaxBodyBytes bounds a proxied submission body (default 8 MiB).
	MaxBodyBytes int64
	// Witness enables witness replication: every acknowledged
	// submission is forwarded to the ring successor of the acknowledging
	// instance as a witness copy, and AntiEntropy can rebuild an
	// instance that lost its disk (see witness.go).
	Witness bool
	// WitnessSync makes witness forwarding synchronous (the 202 to the
	// client waits for the witness holder's 202). Tests use this for
	// determinism; production leaves it false — witness copies are
	// best-effort redundancy behind the WAL.
	WitnessSync bool
	// Log receives degradation records, tagged component=router, each
	// naming the instance it concerns (nil = discard).
	Log *slog.Logger

	submitDeadline time.Duration // test seam: one proxied submission attempt; 0 = 15s
}

func (c *RouterConfig) normalize() error {
	if len(c.Instances) == 0 {
		return errors.New("cluster: router needs at least one instance")
	}
	seen := make(map[string]bool, len(c.Instances))
	for _, in := range c.Instances {
		if in.ID == "" || in.BaseURL == "" {
			return fmt.Errorf("cluster: instance needs id and url (got id=%q url=%q)", in.ID, in.BaseURL)
		}
		if seen[in.ID] {
			return fmt.Errorf("cluster: duplicate instance id %q", in.ID)
		}
		seen[in.ID] = true
	}
	if c.QueryDeadline == 0 {
		c.QueryDeadline = 2 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.submitDeadline == 0 {
		c.submitDeadline = 15 * time.Second
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return nil
}

// Router is the tier frontend: it places submissions on their owning
// instance (failing over along the ring when the owner is down or
// draining) and answers queries by scatter-gathering every reachable
// instance, degrading to explicit partial results instead of
// all-or-nothing 504s.
//
// Lock rule: members' own mutex guards membership (who, where, how
// healthy, which ring, which pins) and only members' methods take it;
// memMu serializes migrations and is taken first.
type Router struct {
	cfg     RouterConfig
	log     *slog.Logger
	members *members
	client  *http.Client

	// memMu serializes membership operations (addInstance /
	// removeInstance) end to end; migration is their progress state,
	// surfaced under /v1/stats and /v1/membership.
	memMu     sync.Mutex
	migration migration

	// statsMu guards stats, whose fields are the /v1/stats "router"
	// counters themselves. No other lock is taken under it.
	statsMu sync.Mutex
	stats   RouterStats

	witnessWG sync.WaitGroup // in-flight async witness forwards
}

// NewRouter builds the tier frontend over the configured instances.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	return &Router{
		cfg:     cfg,
		log:     log.With("component", "router"),
		members: newMembers(cfg.FailureThreshold, cfg.VNodes, cfg.Seed, cfg.Instances),
		client:  &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// Handler returns the route table — the same paths pmsimd serves, so a
// fleet points its sink at the router unchanged.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", rt.handleSubmit)
	mux.HandleFunc("/v1/hotpcs", rt.handleHotPCs)
	mux.HandleFunc("/v1/estimate", rt.handleEstimate)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/membership", rt.handleMembership)
	mux.HandleFunc("/v1/membership/add", rt.handleMembershipChange(rt.addInstance))
	mux.HandleFunc("/v1/membership/remove", rt.handleMembershipChange(
		func(ctx context.Context, id, _ string) (*api.MigrationReport, error) {
			return rt.removeInstance(ctx, id)
		}))
	mux.HandleFunc("/v1/resolve", rt.handleResolve)
	mux.HandleFunc("/healthz", api.Healthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	return mux
}

// submitShardID pulls just the shard id out of a submission body; the
// payload stays opaque bytes — the owning instance decodes and verifies
// it, the router only places it.
func submitShardID(body []byte) (string, error) {
	var env struct {
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return "", err
	}
	if env.Shard == "" {
		return "", errors.New("submission without a shard id")
	}
	return env.Shard, nil
}

// handleSubmit proxies one submission to its ring owner, failing over
// to successors when an instance is down or draining. The answer is the
// owning instance's with the routing provenance added (api.Routed): who
// acknowledged or finally refused, and who refused with 503 on the way —
// each of those recorded the shard's captured samples as loss, which
// matters to anyone auditing the fleet-wide conservation invariant.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	rt.count(&rt.stats.Submits)
	body, err := api.ReadBody(w, r, "submission", rt.cfg.MaxBodyBytes, nil)
	if err != nil {
		return
	}
	shard, err := submitShardID(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "malformed", err.Error())
		return
	}
	// One read of the table: where to offer the shard, and the epoch that
	// order belongs to.
	hops, epoch := rt.members.route(shard)
	// Clients that cache /v1/resolve answers send the epoch they resolved
	// under; a membership change since then means their cached owner may
	// be wrong — answer a typed 409 carrying the CURRENT epoch so they
	// re-resolve instead of submitting into a stale placement. Requests
	// without the header (the normal proxy path) are placed fresh here
	// and never see this.
	if hdr := r.Header.Get("X-Ring-Epoch"); hdr != "" {
		if want, perr := strconv.ParseUint(hdr, 10, 64); perr != nil || want != epoch {
			rt.count(&rt.stats.WrongOwnerConflicts)
			api.WriteJSON(w, http.StatusConflict, api.StaleEpoch{Error: api.Error{
				Msg: fmt.Sprintf("ring epoch %q is stale (current %d): re-resolve and retry", hdr, epoch), Kind: "wrong-owner"}, Epoch: epoch})
			return
		}
	}

	var refusedBy []string
	for _, h := range hops {
		status, respBody, err := rt.forwardSubmit(r.Context(), h, body)
		if err != nil && r.Context().Err() == nil {
			// One same-instance retry before failing over: the instance's
			// admission ledger dedupes a duplicate delivery for free,
			// whereas failing over on a transient blip spreads the shard
			// to a second instance's books (a double-merge risk only the
			// pinning discipline then contains). Skipped when the CLIENT
			// disconnected — that isn't the instance's failure.
			rt.count(&rt.stats.SubmitRetries)
			status, respBody, err = rt.forwardSubmit(r.Context(), h, body)
		}
		switch {
		case err != nil:
			rt.count(&rt.stats.LegsFailed)
			rt.observe(h.id, sigFailed, "shard", shard, "err", err)
			rt.log.Warn("failing over", "instance", h.id, "shard", shard, "err", err)
			rt.count(&rt.stats.Failovers)
		case status == http.StatusServiceUnavailable:
			// Draining (or a drain raced admission): the refusal was
			// loss-accounted there; fail over to the ring successor.
			rt.observe(h.id, sigDraining, "kind", "draining", "shard", shard)
			refusedBy = append(refusedBy, h.id)
			rt.count(&rt.stats.Failovers)
			rt.log.Warn("failing over", "instance", h.id, "shard", shard, "reason", "draining")
		default:
			// A 202; or 429 backpressure (retry the same owner later) or a
			// permanent 4xx, which go back to the client untouched except
			// provenance.
			rt.observe(h.id, sigAdmits, "shard", shard)
			// One decode of the answer — an ack, an error body, or Raw
			// when it is not JSON — and the provenance added to it.
			var reply api.Routed
			if json.Unmarshal(respBody, &reply) != nil {
				raw := string(respBody)
				reply = api.Routed{Raw: &raw}
			}
			reply.Instance, reply.Epoch, reply.RefusedBy = h.id, epoch, refusedBy
			if status == http.StatusAccepted {
				rt.members.pin(shard, h.id)
				if rt.cfg.Witness {
					c := api.WitnessCopy{Origin: h.id, Shard: shard}
					if reply.SubmitAck != nil {
						c.Captured = reply.Captured
					}
					rt.forwardWitness(c, body)
				}
			}
			api.WriteJSON(w, status, reply)
			return
		}
	}
	api.WriteJSON(w, http.StatusServiceUnavailable, api.Unplaced{Error: api.Error{
		Msg: fmt.Sprintf("no collector instance reachable for shard %s (%d tried)", shard, len(hops)), Kind: "no-instances"}, RefusedBy: refusedBy})
}

func (rt *Router) forwardSubmit(ctx context.Context, to hop, body []byte) (int, []byte, error) {
	return roundTrip(ctx, rt.client, http.MethodPost, to.url+"/v1/submit", body, rt.cfg.submitDeadline, 1<<20)
}

// roundTrip is the package's one HTTP exchange: method on url, with body
// (JSON, when non-nil), under deadline when it is positive, reading at
// most limit bytes of the response. A nil client is the default one.
// An error with status 0 means no answer arrived; an error beside a
// status means the answer's body was cut short or ran past limit, and
// raw is what was read of it, at most limit bytes — so a caller that
// acts on the status alone tests status == 0, and one that needs the
// body tests err. Callers read the status their own way; answered
// spells the error for one they did not want.
func roundTrip(ctx context.Context, client *http.Client, method, url string, body []byte, deadline time.Duration, limit int64) (int, []byte, error) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	var payload io.Reader
	if body != nil {
		payload = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, payload)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(raw)) > limit {
		raw, err = raw[:limit], fmt.Errorf("%s %s: answer exceeds %d bytes", method, url, limit)
	}
	return resp.StatusCode, raw, err
}

// answered is the error for a reply whose status the caller did not
// want, with the start of its body (instances answer typed JSON errors).
func answered(what string, status int, raw []byte) error {
	if len(raw) > 256 {
		raw = raw[:256]
	}
	return fmt.Errorf("%s answered %d: %s", what, status, raw)
}

// get fetches one URL under the query deadline, reading at most limit
// bytes; an answer that is not a whole 200 is an error.
func (rt *Router) get(ctx context.Context, u string, limit int64) ([]byte, error) {
	status, body, err := roundTrip(ctx, rt.client, http.MethodGet, u, nil, rt.cfg.QueryDeadline, limit)
	if err == nil && status != http.StatusOK {
		err = answered("GET "+u, status, body)
	}
	return body, err
}

// getJSON decodes the 200 body of one GET of at most 8 MiB into v.
func (rt *Router) getJSON(ctx context.Context, u string, v any) error {
	body, err := rt.get(ctx, u, 8<<20)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// postJSON POSTs the control body in to u under the submit deadline and
// decodes the 200 ack into out; what names the exchange in errors.
func (rt *Router) postJSON(ctx context.Context, what, u string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	status, raw, err := roundTrip(ctx, rt.client, http.MethodPost, u, body, rt.cfg.submitDeadline, 1<<20)
	switch {
	case status == 0:
		return err
	case status != http.StatusOK:
		return answered(what, status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: ack unparseable: %w", what, err)
	}
	return nil
}

// handleReadyz: the router is ready while at least one instance is not
// Down — a degraded tier serves partial results rather than nothing.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	members, _ := rt.members.view()
	up := 0
	byState := make(map[string]string, len(members))
	for _, m := range members {
		byState[m.id] = m.state.String()
		if m.state != stateDown {
			up++
		}
	}
	if up == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable, struct {
			api.Error
			Instances map[string]string `json:"instances"`
		}{api.Error{Msg: "every collector instance is down", Kind: "no-instances"}, byState})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"ready": true, "instances": byState, "reachable": up,
	})
}

// RouterStats are the router's own counters, served under "router" in
// /v1/stats.
type RouterStats struct {
	Submits              uint64 `json:"submits"`
	SubmitRetries        uint64 `json:"submit_retries"`
	WrongOwnerConflicts  uint64 `json:"wrong_owner_conflicts"`
	Failovers            uint64 `json:"failovers"`
	Hedges               uint64 `json:"hedges"`
	HedgeWins            uint64 `json:"hedge_wins"`
	PartialsServed       uint64 `json:"partials_served"`
	LegsFailed           uint64 `json:"legs_failed"`
	WitnessSent          uint64 `json:"witness_sent"`
	WitnessFailed        uint64 `json:"witness_failed"`
	AntiEntropyRuns      uint64 `json:"anti_entropy_runs"`
	AntiEntropyResubmits uint64 `json:"anti_entropy_resubmits"`
}

// Stats returns a snapshot of the router counters.
func (rt *Router) Stats() RouterStats {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	return rt.stats
}

// count bumps one of rt.stats' counters.
func (rt *Router) count(counter *uint64) {
	rt.statsMu.Lock()
	*counter++
	rt.statsMu.Unlock()
}
