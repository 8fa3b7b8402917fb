package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
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
	// SubmitDeadline bounds one submission proxy attempt (default 15s).
	SubmitDeadline time.Duration
	// FailureThreshold consecutive transport failures mark an instance
	// Down (default 3).
	FailureThreshold int
	// MaxBodyBytes bounds a proxied submission body (default 8 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint on 429/503 responses (default 1s).
	RetryAfter time.Duration
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
	// Client is the outbound HTTP client (default: 30s timeout).
	Client *http.Client
	// Log receives degradation lines (nil = silent). Writes are
	// serialized by the router's own mutex and carry the instance id
	// they concern, so concurrent soak output stays attributable.
	Log io.Writer
	// Capture, when set, receives every well-formed submission (shard
	// id + verbatim body) before placement — the tier's offered load,
	// whatever individual instances went on to answer. Must be fast and
	// must not panic (traffic.CaptureWriter satisfies both).
	Capture func(shard string, body []byte)
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
	if c.SubmitDeadline == 0 {
		c.SubmitDeadline = 15 * time.Second
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// Router is the tier frontend: it places submissions on their owning
// instance (failing over along the ring when the owner is down or
// draining) and answers queries by scatter-gathering every reachable
// instance, degrading to explicit partial results instead of
// all-or-nothing 504s.
type Router struct {
	cfg    RouterConfig
	ring   *lockedRing
	health *health
	client *http.Client

	urlMu sync.Mutex
	urls  map[string]string // instance id -> base URL

	// placed pins a shard to the instance that acknowledged it, so a
	// client retry after a lost 202 goes back to the same ledger and
	// dedupes instead of double-merging on a different instance after a
	// health flap. Memory grows with distinct shard ids, like the
	// per-instance admission ledger it protects.
	placedMu sync.Mutex
	placed   map[string]string

	// memMu serializes membership operations (AddInstance /
	// RemoveInstance) end to end; migration is their progress state,
	// surfaced under /v1/stats and /v1/membership.
	memMu     sync.Mutex
	migration migration

	logMu sync.Mutex

	witnessWG sync.WaitGroup // in-flight async witness forwards

	submits          atomic.Uint64
	submitRetries    atomic.Uint64
	wrongOwner       atomic.Uint64
	failovers        atomic.Uint64
	hedges           atomic.Uint64
	hedgeWins        atomic.Uint64
	partialsServed   atomic.Uint64
	legsFailed       atomic.Uint64
	witnessSent      atomic.Uint64
	witnessFailed    atomic.Uint64
	antiEntropyRuns  atomic.Uint64
	antiEntropyResub atomic.Uint64
}

// NewRouter builds the tier frontend over the configured instances.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ring := NewRing(cfg.VNodes, cfg.Seed)
	urls := make(map[string]string, len(cfg.Instances))
	ids := make([]string, 0, len(cfg.Instances))
	for _, in := range cfg.Instances {
		ring.Add(in.ID)
		urls[in.ID] = in.BaseURL
		ids = append(ids, in.ID)
	}
	return &Router{
		cfg:    cfg,
		ring:   &lockedRing{r: ring},
		health: newHealth(cfg.FailureThreshold, ids),
		client: cfg.Client,
		urls:   urls,
		placed: make(map[string]string),
	}, nil
}

// SetInstance registers (or re-registers) an instance: a replacement
// process for a known id keeps its ring position but may live at a new
// URL. The instance starts Healthy; the next probe or request corrects
// that if it is wrong.
func (rt *Router) SetInstance(id, baseURL string) {
	rt.urlMu.Lock()
	rt.urls[id] = baseURL
	rt.urlMu.Unlock()
	rt.ring.mu.Lock()
	rt.ring.r.Add(id)
	rt.ring.mu.Unlock()
	rt.health.ensure(id)
	rt.health.reportSuccess(id)
}

func (rt *Router) instanceURLs() map[string]string {
	rt.urlMu.Lock()
	defer rt.urlMu.Unlock()
	out := make(map[string]string, len(rt.urls))
	for id, u := range rt.urls {
		out[id] = u
	}
	return out
}

func (rt *Router) urlOf(id string) string {
	rt.urlMu.Lock()
	defer rt.urlMu.Unlock()
	return rt.urls[id]
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
	mux.HandleFunc("/v1/membership/add", rt.handleMembershipAdd)
	mux.HandleFunc("/v1/membership/remove", rt.handleMembershipRemove)
	mux.HandleFunc("/v1/resolve", rt.handleResolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("/readyz", rt.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeErr(w http.ResponseWriter, status int, kind, msg string, extra map[string]any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(rt.cfg.RetryAfter.Seconds())))
	}
	body := map[string]any{"error": msg, "kind": kind}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, status, body)
}

// submitCaptured pulls the acknowledged shard's captured-sample total
// (Samples+Lost) out of the owner's 202 body. It rides into the witness
// ledger so anti-entropy audits can weigh what a lost disk held; 0 when
// an older instance omits the field.
func submitCaptured(respBody []byte) uint64 {
	var env struct {
		Captured uint64 `json:"captured"`
	}
	if err := json.Unmarshal(respBody, &env); err != nil {
		return 0
	}
	return env.Captured
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
// to successors when an instance is down or draining. The response body
// is the owning instance's, augmented with routing provenance:
// "instance" (who acknowledged or finally refused) and "refused_by"
// (instances that 503-refused along the way — each of those recorded
// the shard's captured samples as loss, which matters to anyone
// auditing the fleet-wide conservation invariant).
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeErr(w, http.StatusMethodNotAllowed, "method", "POST only", nil)
		return
	}
	rt.submits.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.writeErr(w, http.StatusRequestEntityTooLarge, "oversized",
				fmt.Sprintf("submission body exceeds %d bytes", rt.cfg.MaxBodyBytes), nil)
			return
		}
		rt.writeErr(w, http.StatusBadRequest, "body", err.Error(), nil)
		return
	}
	shard, err := submitShardID(body)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, "malformed", err.Error(), nil)
		return
	}
	if rt.cfg.Capture != nil {
		rt.cfg.Capture(shard, body)
	}
	// Clients that cache /v1/resolve answers send the epoch they resolved
	// under; a membership change since then means their cached owner may
	// be wrong — answer a typed 409 carrying the CURRENT epoch so they
	// re-resolve instead of submitting into a stale placement. Requests
	// without the header (the normal proxy path) are placed fresh here
	// and never see this.
	if hdr := r.Header.Get("X-Ring-Epoch"); hdr != "" {
		want, perr := strconv.ParseUint(hdr, 10, 64)
		cur := rt.ring.epoch()
		if perr != nil || want != cur {
			rt.wrongOwner.Add(1)
			rt.writeErr(w, http.StatusConflict, "wrong-owner",
				fmt.Sprintf("ring epoch %q is stale (current %d): re-resolve and retry", hdr, cur),
				map[string]any{"epoch": cur})
			return
		}
	}

	candidates := rt.submitCandidates(shard)
	var refusedBy []string
	tried := 0
	for _, id := range candidates {
		switch rt.health.get(id) {
		case StateDown:
			continue
		case StateDraining:
			// Known-draining instances are skipped for NEW submissions —
			// but a shard pinned there must still be offered first so the
			// drain ledger can dedupe a retry of an already-merged shard.
			if rt.placedInstance(shard) != id {
				continue
			}
		}
		tried++
		status, respBody, err := rt.forwardSubmit(r.Context(), id, body)
		if err != nil && r.Context().Err() == nil {
			// One same-instance retry before failing over: the instance's
			// admission ledger dedupes a duplicate delivery for free,
			// whereas failing over on a transient blip spreads the shard
			// to a second instance's books (a double-merge risk only the
			// pinning discipline then contains). Skipped when the CLIENT
			// disconnected — that isn't the instance's failure.
			rt.submitRetries.Add(1)
			status, respBody, err = rt.forwardSubmit(r.Context(), id, body)
		}
		if err != nil {
			rt.legsFailed.Add(1)
			if rt.health.reportFailure(id) == StateDown {
				rt.logf("submit shard %s: instance %s marked down (%v)", shard, id, err)
			} else {
				rt.logf("submit shard %s: instance %s unreachable (%v), failing over", shard, id, err)
			}
			rt.failovers.Add(1)
			continue
		}
		switch status {
		case http.StatusServiceUnavailable:
			// Draining (or a drain raced admission): the refusal was
			// loss-accounted there; fail over to the ring successor.
			rt.health.reportDraining(id)
			refusedBy = append(refusedBy, id)
			rt.failovers.Add(1)
			rt.logf("submit shard %s: instance %s draining, failing over", shard, id)
			continue
		case http.StatusAccepted:
			rt.health.reportSuccess(id)
			rt.rememberPlacement(shard, id)
			if rt.cfg.Witness {
				rt.forwardWitness(shard, id, submitCaptured(respBody), body)
			}
			rt.respondAugmented(w, status, respBody, id, refusedBy)
			return
		default:
			// 429 backpressure (retry the same owner later) and permanent
			// 4xx both go back to the client untouched except provenance.
			rt.health.reportSuccess(id)
			rt.respondAugmented(w, status, respBody, id, refusedBy)
			return
		}
	}
	rt.writeErr(w, http.StatusServiceUnavailable, "no-instances",
		fmt.Sprintf("no collector instance reachable for shard %s (%d tried)", shard, tried),
		map[string]any{"refused_by": refusedBy})
}

// submitCandidates orders the instances to try: the pinned placement
// first (ledger stickiness across failover), then ring order from the
// owner.
func (rt *Router) submitCandidates(shard string) []string {
	ringOrder := rt.ring.successors(shard, rt.ring.size())
	pinned := rt.placedInstance(shard)
	if pinned == "" {
		return ringOrder
	}
	out := []string{pinned}
	for _, id := range ringOrder {
		if id != pinned {
			out = append(out, id)
		}
	}
	return out
}

func (rt *Router) placedInstance(shard string) string {
	rt.placedMu.Lock()
	defer rt.placedMu.Unlock()
	return rt.placed[shard]
}

func (rt *Router) rememberPlacement(shard, id string) {
	rt.placedMu.Lock()
	rt.placed[shard] = id
	rt.placedMu.Unlock()
}

func (rt *Router) forwardSubmit(ctx context.Context, id string, body []byte) (int, []byte, error) {
	base := rt.urlOf(id)
	if base == "" {
		return 0, nil, fmt.Errorf("no URL for instance %s", id)
	}
	return roundTrip(ctx, rt.client, http.MethodPost, base+"/v1/submit", body, rt.cfg.SubmitDeadline, 1<<20)
}

// roundTrip is the package's one HTTP exchange: method on url, with body
// (JSON, when non-nil), under deadline when it is positive, keeping at
// most limit bytes of the response. A nil client is the default one.
// An error with status 0 means no answer arrived; an error beside a
// status means the answer's body was cut short, and raw is what was read
// of it — so a caller that acts on the status alone tests status == 0,
// and one that needs the body tests err. Callers read the status their
// own way; answered spells the error for one they did not want.
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
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit))
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

// respondAugmented relays an instance response with routing provenance
// folded into the JSON body (pass-through when the body is not JSON).
func (rt *Router) respondAugmented(w http.ResponseWriter, status int, body []byte, instance string, refusedBy []string) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m == nil {
		m = map[string]any{"raw": string(body)}
	}
	m["instance"] = instance
	// The epoch lets clients pair every ack with the membership view it
	// was routed under (and seed their X-Ring-Epoch caches).
	m["epoch"] = rt.ring.epoch()
	if len(refusedBy) > 0 {
		m["refused_by"] = refusedBy
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(rt.cfg.RetryAfter.Seconds())))
	}
	writeJSON(w, status, m)
}

// errorKind extracts the "kind" of a JSON error body (best effort).
func errorKind(raw []byte) string {
	var e struct {
		Kind string `json:"kind"`
	}
	if json.Unmarshal(raw, &e) != nil {
		return ""
	}
	return e.Kind
}

// ---- scatter-gather ----

// leg is one instance's contribution to a scatter-gather query.
type leg struct {
	id     string
	status int
	body   []byte
	err    error
}

// gather fans a GET out to every non-Down instance with a per-leg
// deadline and hedged stragglers, and returns the responses plus the
// ids that produced none. It never fails as a whole: losing legs is the
// partial-result degradation the caller reports explicitly.
func (rt *Router) gather(ctx context.Context, pathAndQuery string) (oks []leg, missing []string) {
	targets := make(map[string]string)
	for id, base := range rt.instanceURLs() {
		if rt.health.get(id) == StateDown {
			continue
		}
		targets[id] = base
	}
	results := make(chan leg, len(targets))
	for id, base := range targets {
		go func(id, url string) {
			results <- rt.fetchHedged(ctx, id, url)
		}(id, base+pathAndQuery)
	}
	for range targets {
		l := <-results
		if l.err != nil {
			rt.legsFailed.Add(1)
			// A leg that died because the CLIENT disconnected (the parent
			// request context canceled, which cancels every derived per-leg
			// context) says nothing about the instance's health — charging
			// it a failure would let one impatient client mark the whole
			// tier Down.
			if ctx.Err() == nil {
				if rt.health.reportFailure(l.id) == StateDown {
					rt.logf("gather %s: instance %s marked down (%v)", pathAndQuery, l.id, l.err)
				}
			}
			missing = append(missing, l.id)
			continue
		}
		rt.health.reportSuccess(l.id)
		oks = append(oks, l)
	}
	sort.Slice(oks, func(i, j int) bool { return oks[i].id < oks[j].id })
	sort.Strings(missing)
	return oks, missing
}

// fetchHedged races the instance against its own straggling: if the
// first request has not answered within HedgeDelay, an identical
// duplicate fires and the first response (from either) wins. Both run
// under the same per-leg deadline, so a dead instance costs exactly
// QueryDeadline, never more.
func (rt *Router) fetchHedged(ctx context.Context, id, url string) leg {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.QueryDeadline)
	defer cancel()
	first := make(chan leg, 1)
	go func() { first <- rt.fetchOne(ctx, id, url) }()
	if rt.cfg.HedgeDelay < 0 {
		return <-first
	}
	timer := time.NewTimer(rt.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case l := <-first:
		return l
	case <-timer.C:
	}
	rt.hedges.Add(1)
	hedge := make(chan leg, 1)
	go func() { hedge <- rt.fetchOne(ctx, id, url) }()
	select {
	case l := <-first:
		return l
	case l := <-hedge:
		if l.err == nil {
			rt.hedgeWins.Add(1)
		}
		return l
	}
}

func (rt *Router) fetchOne(ctx context.Context, id, url string) leg {
	status, body, err := roundTrip(ctx, rt.client, http.MethodGet, url, nil, 0, 8<<20)
	return leg{id: id, status: status, body: body, err: err}
}

// partialFields annotates a merged response with the degradation
// contract: "partial" is true when any reachable instance failed to
// answer, and "instances_missing" counts them. Down instances are
// already known-missing and counted too — a reader must be able to see
// that the fleet view is incomplete.
func (rt *Router) partialFields(resp map[string]any, missing []string) {
	down := 0
	for id, st := range rt.health.snapshot() {
		if st == StateDown && !contains(missing, id) {
			missing = append(missing, id)
			down++
		}
	}
	sort.Strings(missing)
	resp["partial"] = len(missing) > 0
	resp["instances_missing"] = len(missing)
	if len(missing) > 0 {
		rt.partialsServed.Add(1)
		resp["missing"] = missing
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// instanceHotPCs mirrors the per-instance /v1/hotpcs payload.
type instanceHotPCs struct {
	Samples  uint64  `json:"samples"`
	Lost     uint64  `json:"lost"`
	LossRate float64 `json:"loss_rate"`
	// Sketch fields (absent on ?sketch=false answers): ErrorBound is the
	// instance's sketch floor — the maximum true count of any PC it did
	// NOT list; WindowSamples is the exact in-window total on windowed
	// answers.
	Approx        bool   `json:"approx"`
	ErrorBound    uint64 `json:"error_bound"`
	WindowMS      int64  `json:"window_ms"`
	WindowClamped bool   `json:"window_clamped"`
	WindowSamples uint64 `json:"window_samples"`
	PCs           []struct {
		PC             string  `json:"pc"`
		Samples        uint64  `json:"samples"`
		MaxErr         uint64  `json:"max_err"`
		EstCount       float64 `json:"est_count"`
		RetiredPct     float64 `json:"retired_pct"`
		DCacheMissPct  float64 `json:"dcache_miss_pct"`
		MispredictPct  float64 `json:"mispredict_pct"`
		MeanInProgress float64 `json:"mean_inprogress_cycles"`
	} `json:"pcs"`
}

// handleHotPCs scatter-gathers every instance's top list and merges:
// counts and estimates are additive across the tier (shards are placed
// whole, so each instance holds an independent sampled subset), rates
// and means re-weight by contributing samples. Each instance is asked
// for an over-fetch (4× n, capped) so a PC hot fleet-wide but trailing
// locally still surfaces.
//
// Sketch answers merge because space-saving partials merge: estimates
// add where a PC is present; where an instance omitted the PC, that
// instance may still have counted it up to its error_bound (floor), so
// the merged row's max_err gains the absent instances' floors. The
// fleet error_bound is the sum of floors — the maximum true fleet-wide
// count of any PC NOT listed. ?sketch= and ?window= pass through to the
// instances.
func (rt *Router) handleHotPCs(w http.ResponseWriter, r *http.Request) {
	n, perr := intQueryParam(r, "n", 10, 1, 1000)
	if perr != "" {
		rt.writeErr(w, http.StatusBadRequest, "param", perr, nil)
		return
	}
	fetch := n * 4
	if fetch > 1000 {
		fetch = 1000
	}
	q := "/v1/hotpcs?n=" + strconv.Itoa(fetch)
	windowed := false
	if v := r.URL.Query().Get("sketch"); v != "" {
		q += "&sketch=" + url.QueryEscape(v)
	}
	if v := r.URL.Query().Get("window"); v != "" {
		q += "&window=" + url.QueryEscape(v)
		windowed = true
	}
	oks, missing := rt.gather(r.Context(), q)
	if len(oks) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no-instances",
			"no collector instance answered", map[string]any{"missing": missing})
		return
	}
	legs := make([]instanceHotPCs, 0, len(oks))
	var badBody []byte
	for _, l := range oks {
		if l.status == http.StatusBadRequest {
			// The request itself is bad (malformed window/sketch value):
			// relay one instance's typed 400.
			badBody = l.body
			continue
		}
		if l.status != http.StatusOK {
			missing = append(missing, l.id)
			continue
		}
		var one instanceHotPCs
		if err := json.Unmarshal(l.body, &one); err != nil {
			missing = append(missing, l.id)
			continue
		}
		legs = append(legs, one)
	}
	if len(legs) == 0 && badBody != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write(badBody)
		return
	}
	type mergedPC struct {
		samples                            uint64
		maxErr                             uint64
		legsIn                             int
		est                                float64
		retired, dmiss, mispredict, inprog float64 // sample-weighted sums
	}
	merged := make(map[string]*mergedPC)
	var (
		samples, lost, errorBound, windowSamples uint64
		approx, windowClamped                    bool
		windowMS                                 int64
	)
	for _, one := range legs {
		samples += one.Samples
		lost += one.Lost
		approx = approx || one.Approx
		errorBound += one.ErrorBound
		windowSamples += one.WindowSamples
		windowClamped = windowClamped || one.WindowClamped
		if one.WindowMS > windowMS {
			windowMS = one.WindowMS
		}
		for _, row := range one.PCs {
			m := merged[row.PC]
			if m == nil {
				m = &mergedPC{}
				merged[row.PC] = m
			}
			ws := float64(row.Samples)
			m.samples += row.Samples
			m.maxErr += row.MaxErr
			m.legsIn++
			m.est += row.EstCount
			m.retired += ws * row.RetiredPct
			m.dmiss += ws * row.DCacheMissPct
			m.mispredict += ws * row.MispredictPct
			m.inprog += ws * row.MeanInProgress
		}
	}
	// An instance that answered but omitted a PC may have seen it up to
	// its floor times: fold those floors into the row's error bound.
	for _, one := range legs {
		present := make(map[string]bool, len(one.PCs))
		for _, row := range one.PCs {
			present[row.PC] = true
		}
		for pc, m := range merged {
			if !present[pc] {
				m.maxErr += one.ErrorBound
			}
		}
	}
	pcs := make([]string, 0, len(merged))
	for pc := range merged {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		a, b := merged[pcs[i]], merged[pcs[j]]
		if a.samples != b.samples {
			return a.samples > b.samples
		}
		return pcs[i] < pcs[j]
	})
	if len(pcs) > n {
		pcs = pcs[:n]
	}
	rows := make([]map[string]any, 0, len(pcs))
	for _, pc := range pcs {
		m := merged[pc]
		ws := float64(m.samples)
		row := map[string]any{
			"pc":        pc,
			"samples":   m.samples,
			"est_count": m.est,
		}
		if m.maxErr > 0 {
			row["max_err"] = m.maxErr
		}
		// Windowed rows carry sketch estimates only — no rate fields.
		if ws > 0 && !windowed {
			row["retired_pct"] = m.retired / ws
			row["dcache_miss_pct"] = m.dmiss / ws
			row["mispredict_pct"] = m.mispredict / ws
			row["mean_inprogress_cycles"] = m.inprog / ws
		}
		rows = append(rows, row)
	}
	resp := map[string]any{
		"samples": samples,
		"lost":    lost,
		"pcs":     rows,
		"approx":  approx,
	}
	if approx {
		resp["error_bound"] = errorBound
	}
	if windowed {
		resp["window_ms"] = windowMS
		resp["window_clamped"] = windowClamped
		resp["window_samples"] = windowSamples
	}
	if samples+lost > 0 {
		resp["loss_rate"] = float64(lost) / float64(samples+lost)
	} else {
		resp["loss_rate"] = 0.0
	}
	rt.partialFields(resp, missing)
	writeJSON(w, http.StatusOK, resp)
}

// instanceEstimate mirrors the per-instance /v1/estimate payload.
type instanceEstimate struct {
	Samples       uint64             `json:"samples"`
	EstCount      float64            `json:"est_count"`
	Approx        bool               `json:"approx"`
	MaxErr        uint64             `json:"max_err"`
	Event         string             `json:"event"`
	EstEventCount float64            `json:"est_event_count"`
	EventRate     float64            `json:"event_rate"`
	EstEvents     map[string]float64 `json:"est_event_counts"`
	MeanLatencies map[string]float64 `json:"mean_latencies"`
}

// handleEstimate merges per-PC estimator rollups: counts sum, rates and
// mean latencies re-weight by contributing samples (an approximation
// for latencies, whose per-kind contributor counts stay instance-local;
// good to the extent shard placement is unbiased, which hash placement
// is). An instance answering 404 simply holds no samples for the PC.
func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	pc := r.URL.Query().Get("pc")
	if pc == "" {
		rt.writeErr(w, http.StatusBadRequest, "param", "pc parameter required", nil)
		return
	}
	q := "/v1/estimate?" + r.URL.RawQuery
	oks, missing := rt.gather(r.Context(), q)
	if len(oks) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no-instances",
			"no collector instance answered", map[string]any{"missing": missing})
		return
	}
	var (
		samples, maxErr    uint64
		approx             bool
		est, estEv, rateWS float64
		events             = make(map[string]float64)
		lats               = make(map[string]float64)
		event              string
		answered, badReq   int
		badBody            []byte
	)
	for _, l := range oks {
		switch l.status {
		case http.StatusNotFound:
			continue
		case http.StatusBadRequest:
			badReq++
			badBody = l.body
			continue
		}
		if l.status != http.StatusOK {
			missing = append(missing, l.id)
			continue
		}
		var one instanceEstimate
		if err := json.Unmarshal(l.body, &one); err != nil {
			missing = append(missing, l.id)
			continue
		}
		answered++
		samples += one.Samples
		approx = approx || one.Approx
		maxErr += one.MaxErr
		est += one.EstCount
		estEv += one.EstEventCount
		rateWS += float64(one.Samples) * one.EventRate
		event = one.Event
		for k, v := range one.EstEvents {
			events[k] += v
		}
		for k, v := range one.MeanLatencies {
			lats[k] += float64(one.Samples) * v
		}
	}
	if badReq > 0 && answered == 0 {
		// The request itself is bad (unknown event name, bad pc):
		// relay one instance's typed 400 rather than inventing partial.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write(badBody)
		return
	}
	if answered == 0 {
		rt.writeErr(w, http.StatusNotFound, "unknown-pc",
			fmt.Sprintf("pc %s has no samples on any reachable instance", pc),
			map[string]any{"missing": missing})
		return
	}
	resp := map[string]any{
		"pc":        pc,
		"samples":   samples,
		"est_count": est,
		"approx":    approx,
	}
	if approx {
		resp["max_err"] = maxErr
	}
	if event != "" {
		resp["event"] = event
		resp["est_event_count"] = estEv
		if samples > 0 {
			resp["event_rate"] = rateWS / float64(samples)
		}
	} else if len(events) > 0 {
		resp["est_event_counts"] = events
	}
	if samples > 0 {
		for k := range lats {
			lats[k] /= float64(samples)
		}
	}
	resp["mean_latencies"] = lats
	rt.partialFields(resp, missing)
	writeJSON(w, http.StatusOK, resp)
}

// instanceStats is the subset of per-instance stats the fleet rollup
// sums; the full per-instance payload rides alongside verbatim.
type instanceStats struct {
	Samples     uint64 `json:"samples"`
	Lost        uint64 `json:"lost"`
	Merged      uint64 `json:"merged"`
	SamplesLost uint64 `json:"samples_lost"`
	HandoffsIn  uint64 `json:"handoffs_in"`
}

// handleStats scatter-gathers /v1/stats and serves the fleet rollup —
// the fleet-wide conservation invariant's right-hand side (Σ
// Samples+Lost over reachable instances) — plus each instance's full
// stats and the router's own counters.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	oks, missing := rt.gather(r.Context(), "/v1/stats")
	perInstance := make(map[string]json.RawMessage, len(oks))
	var fleet instanceStats
	for _, l := range oks {
		if l.status != http.StatusOK {
			missing = append(missing, l.id)
			continue
		}
		var one instanceStats
		if err := json.Unmarshal(l.body, &one); err != nil {
			missing = append(missing, l.id)
			continue
		}
		fleet.Samples += one.Samples
		fleet.Lost += one.Lost
		fleet.Merged += one.Merged
		fleet.SamplesLost += one.SamplesLost
		fleet.HandoffsIn += one.HandoffsIn
		perInstance[l.id] = json.RawMessage(l.body)
	}
	resp := map[string]any{
		"fleet": map[string]any{
			"samples":      fleet.Samples,
			"lost":         fleet.Lost,
			"merged":       fleet.Merged,
			"samples_lost": fleet.SamplesLost,
			"handoffs_in":  fleet.HandoffsIn,
			"instances":    len(perInstance),
		},
		"instances": perInstance,
		"router":    rt.Stats(),
		"epoch":     rt.ring.epoch(),
		"migration": rt.migration.snapshot(),
	}
	rt.partialFields(resp, missing)
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz: the router is ready while at least one instance is not
// Down — a degraded tier serves partial results rather than nothing.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	states := rt.health.snapshot()
	up := 0
	byState := make(map[string]string, len(states))
	for id, st := range states {
		byState[id] = st.String()
		if st != StateDown {
			up++
		}
	}
	if up == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, "no-instances",
			"every collector instance is down", map[string]any{"instances": byState})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
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
	return RouterStats{
		Submits:              rt.submits.Load(),
		SubmitRetries:        rt.submitRetries.Load(),
		WrongOwnerConflicts:  rt.wrongOwner.Load(),
		Failovers:            rt.failovers.Load(),
		Hedges:               rt.hedges.Load(),
		HedgeWins:            rt.hedgeWins.Load(),
		PartialsServed:       rt.partialsServed.Load(),
		LegsFailed:           rt.legsFailed.Load(),
		WitnessSent:          rt.witnessSent.Load(),
		WitnessFailed:        rt.witnessFailed.Load(),
		AntiEntropyRuns:      rt.antiEntropyRuns.Load(),
		AntiEntropyResubmits: rt.antiEntropyResub.Load(),
	}
}

// intQueryParam parses an integer query parameter with an inclusive
// range; a non-empty second return is the typed-400 message (matching
// the collector's own parameter contract).
func intQueryParam(r *http.Request, name string, def, lo, hi int) (int, string) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, ""
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Sprintf("parameter %q: %q is not an integer", name, v)
	}
	if n < lo || n > hi {
		return 0, fmt.Sprintf("parameter %q: %d out of range [%d,%d]", name, n, lo, hi)
	}
	return n, ""
}

// logf writes one attributable line under the router's log mutex, so
// concurrent request legs never interleave mid-line in soak output.
func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Log == nil {
		return
	}
	rt.logMu.Lock()
	defer rt.logMu.Unlock()
	fmt.Fprintf(rt.cfg.Log, "pmrouter: "+format+"\n", args...)
}
