// Package server is pmsimd's HTTP boundary: shard submission and
// estimator queries over JSON, with the robustness contract enforced at
// the edge — bounded request bodies, typed 4xx for damaged submissions,
// admission backpressure surfaced as 429/503 (+ Retry-After), query
// concurrency limits with shedding above a high-water mark, per-request
// deadlines, and health/readiness endpoints that flip the instant a
// drain begins.
//
// Endpoints:
//
//	POST /v1/submit        shard profile submission (ingest JSON envelope)
//	POST /v1/handoff       take over a removed peer's aggregate and ledger
//	GET  /v1/hotpcs?n=10   top-N hot PCs with loss-corrected estimates;
//	                       &window=30s for recent-only, &sketch=false for
//	                       the exact O(DB) path (default serves the O(K)
//	                       sketch view with "approx"/"error_bound")
//	GET  /v1/estimate?pc=  per-PC estimator rollup (optionally &event=;
//	                       &sketch=false forces the exact path)
//	GET  /v1/stats         ingest/queue/breaker/loss/WAL/witness/sketch counters
//	GET  /v1/ledger        admission ledger (anti-entropy reads this)
//	POST /v1/ledger/adopt  adopt shard ids from a peer (membership change)
//	POST /v1/handoff/export seal + flush + serialize the aggregate for a
//	                       scale-in migration (idempotent: retries get the
//	                       byte-identical cached envelope)
//	POST /v1/handoff/confirm retire: set the WAL and checkpoint aside
//	                       after the receiver's durable ack
//	POST /v1/witness       witness-copy store (see witness.go)
//	GET  /healthz          liveness (200 while the process serves)
//	GET  /readyz           readiness (503 when draining, breaker open, or WAL stalled/wedged)
package server

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
	"sync/atomic"
	"time"

	"profileme/internal/api"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// Config parameterizes the HTTP layer. Zero values get usable defaults.
type Config struct {
	// Instance is this collector's tier identity ("c0"); it prefixes
	// every log line (so interleaved tier soak output stays
	// attributable) and rides in /v1/stats.
	Instance string
	// MaxBodyBytes bounds a submission body (default 8 MiB), and eight
	// times it a handoff body (a donor ships its whole aggregate, not one
	// shard); larger bodies get 413 before the decoder sees them.
	MaxBodyBytes int64
	// QueryDeadline bounds each query's handling time (default 2s).
	QueryDeadline time.Duration
	// MaxQueries is the query concurrency high-water mark (default 32):
	// queries beyond it are shed with 503 instead of queueing behind a
	// saturated aggregate lock.
	MaxQueries int
	// Log receives request-level degradation records, tagged
	// component=server (nil = discard).
	Log *slog.Logger
}

func (c *Config) normalize() {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.QueryDeadline == 0 {
		c.QueryDeadline = 2 * time.Second
	}
	if c.MaxQueries == 0 {
		c.MaxQueries = 32
	}
}

// Server wires the ingest service to HTTP handlers.
type Server struct {
	cfg     Config
	log     *slog.Logger
	svc     *ingest.Service
	witness *witnessStore

	inFlight atomic.Int64 // queries currently being served: the admission gauge

	// statsMu guards stats, whose four HTTP counters are the /v1/stats
	// fields themselves; handleStats fills in the rest of a copy.
	statsMu sync.Mutex
	stats   serverStats
}

// count bumps one of s.stats' counters.
func (s *Server) count(counter *uint64) {
	s.statsMu.Lock()
	*counter++
	s.statsMu.Unlock()
}

// New builds a Server over an ingest service.
func New(cfg Config, svc *ingest.Service) *Server {
	cfg.normalize()
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	return &Server{cfg: cfg, log: log.With("component", "server"), svc: svc, witness: newWitnessStore(8192)}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/handoff", s.handleHandoff)
	mux.HandleFunc("/v1/handoff/export", s.handleHandoffExport)
	mux.HandleFunc("/v1/handoff/confirm", s.handleHandoffConfirm)
	mux.HandleFunc("/v1/ledger/adopt", s.handleLedgerAdopt)
	mux.HandleFunc("/v1/hotpcs", s.query(s.handleHotPCs))
	mux.HandleFunc("/v1/estimate", s.query(s.handleEstimate))
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/ledger", s.handleLedger)
	mux.HandleFunc("/v1/witness", s.handleWitnessPut)
	mux.HandleFunc("/v1/witness/ledger", s.handleWitnessLedger)
	mux.HandleFunc("/v1/witness/fetch", s.handleWitnessFetch)
	mux.HandleFunc("/v1/witness/prune", s.handleWitnessPrune)
	mux.HandleFunc("/healthz", api.Healthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// handleSubmit reads each body into a buffer from bodies and puts it back
// when the handler returns: nothing a submission keeps past Submit
// aliases the body (Submit drops its base64 span once the WAL record is
// staged). A buffer over api.PresizeCap plus bytes.MinRead is left to the
// garbage collector.
var bodies sync.Pool // *[]byte

func takeBody() *[]byte {
	if p, ok := bodies.Get().(*[]byte); ok {
		return p
	}
	return new([]byte)
}

// putBody pools body, the buffer last read into p's.
func putBody(p *[]byte, body []byte) {
	if cap(body) <= api.PresizeCap+bytes.MinRead {
		*p = body[:0]
		bodies.Put(p)
	}
}

// decodeKind names the damage in a body the ingest codec refused: the
// payload's framing taxonomy, or "malformed" for the JSON around it.
func decodeKind(err error) string {
	switch {
	case errors.Is(err, profile.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, profile.ErrTruncated):
		return "truncated"
	case errors.Is(err, profile.ErrVersionSkew):
		return "version-skew"
	}
	return "malformed"
}

// refusal maps a typed ingest failure to its response: 429 queue full
// (backpressure), 503 draining, retiring or WAL unavailable — refusing
// is honest there: the log could not make the 202 promise, and the
// client retries against an instance whose WAL works — 409 unmergeable
// configuration, 500 for anything untyped.
func refusal(err error) (status int, kind string) {
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		return http.StatusTooManyRequests, "queue-full"
	case errors.Is(err, ingest.ErrDraining), errors.Is(err, ingest.ErrHandedOff):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ingest.ErrWAL):
		return http.StatusServiceUnavailable, "wal"
	case errors.Is(err, ingest.ErrConfigMismatch):
		return http.StatusConflict, "config-mismatch"
	}
	return http.StatusInternalServerError, "internal"
}

// refuse answers a typed ingest failure, logging the transient ones an
// operator acts on with attrs naming what was refused (a shard and its
// captured samples — accounted as loss unless the kind is wal — or the
// donor of a handoff or adoption).
func (s *Server) refuse(w http.ResponseWriter, err error, attrs ...any) {
	status, kind := refusal(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.log.Warn("refused", append(attrs, "status", status, "kind", kind, "err", err)...)
	}
	api.WriteError(w, status, kind, err.Error())
}

// handleSubmit is the ingest edge. Every failure is typed and
// deliberate: 413 oversized, 400 damaged envelope/payload, 409
// unmergeable configuration, 429 queue full (backpressure), 503
// draining. A 429/503 response means the shard's samples were recorded
// as aggregate loss — the client may drop the shard without lying to
// the estimators, or retry: an accepted retry reverses the recorded
// loss, so neither path double-counts. Submission is idempotent per
// shard id — a resubmission of a queued/merged shard (a retry after a
// lost response) gets 202 with "duplicate": true and is not re-merged.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	s.count(&s.stats.Submissions)
	buf := takeBody()
	body, err := api.ReadBody(w, r, "submission", s.cfg.MaxBodyBytes, *buf)
	if err != nil {
		return
	}
	defer putBody(buf, body)
	sub, err := ingest.DecodeSubmit(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, decodeKind(err), err.Error())
		return
	}
	// The router copies Captured into the witness ledger. Both counts
	// are read before Submit hands the shard to the merge.
	samples := sub.DB.Samples()
	ack := api.SubmitAck{Shard: sub.Shard, Captured: sub.Captured()}
	switch err := s.svc.Submit(sub); {
	case errors.Is(err, ingest.ErrDuplicate):
		// The shard is already in the pipeline; acknowledge so the client
		// stops retrying, and say it was a duplicate for observability.
		ack.Duplicate = true
	case err != nil:
		s.refuse(w, err, "shard", sub.Shard, "captured", ack.Captured)
		return
	default:
		ack.Samples = &samples
	}
	ack.QueueDepth = s.svc.QueueDepth()
	api.WriteJSON(w, http.StatusAccepted, ack)
}

// handleHandoff is the receiving edge of a scale-in: the router delivers
// a removed peer's whole aggregate (CRC envelope) plus its admission
// ledger, and this instance inherits both, so the removal loses zero
// accumulated samples and retries of the donor's shards keep deduping
// here. The refusal taxonomy mirrors submission: 400 damaged, 409
// unmergeable configuration, 503 when this instance is itself draining
// or retired (the router walks on to the next candidate).
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	s.count(&s.stats.HandoffRequests)
	body, err := api.ReadBody(w, r, "handoff", 8*s.cfg.MaxBodyBytes, nil)
	if err != nil {
		return
	}
	h, err := ingest.DecodeHandoff(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, decodeKind(err), err.Error())
		return
	}
	ack := api.HandoffAck{From: h.From, Shards: len(h.Shards)}
	captured, err := s.svc.AcceptHandoff(h)
	if errors.Is(err, ingest.ErrDuplicate) {
		// Byte-identical redelivery (sender retried after a lost ack):
		// acknowledge with the captured count the original merge reported,
		// exactly like a duplicate shard submission — the sender's retry
		// loop treats 202 as done either way.
		s.log.Info("handoff deduped", "from", h.From, "captured", captured)
		ack.Duplicate = true
	} else if err != nil {
		s.refuse(w, err, "handoff_from", h.From)
		return
	}
	ack.Captured = captured
	api.WriteJSON(w, http.StatusAccepted, ack)
}

// handleHandoffExport is the scale-in donor's side of a migration:
// Service.Export seals, flushes and serializes aggregate + admission
// ledger as a handoff envelope, the same bytes on every retry. An
// instance with no id is a 409 and stays open; a flush cut short by the
// request's context is a 503 the router retries.
func (s *Server) handleHandoffExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	body, err := s.svc.Export(r.Context(), s.cfg.Instance)
	switch {
	case errors.Is(err, ingest.ErrNoInstance):
		api.WriteError(w, http.StatusConflict, "no-instance", err.Error()+" (start pmsimd with -instance)")
		return
	case err != nil && r.Context().Err() != nil:
		s.log.Warn("handoff export failed", "err", err)
		api.WriteError(w, http.StatusServiceUnavailable, "flush", err.Error())
		return
	case err != nil:
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleHandoffConfirm completes a scale-in migration after the receiver
// durably acked the exported envelope: the service retires — submissions
// and further handoffs refuse, and the WAL directory and checkpoint file
// are set aside as *.handedoff, because a restart over either would
// count the migrated samples a second time. Idempotent: a confirm retry
// finds nothing left to rename and answers 200 again; a confirm before
// any export is a 409.
func (s *Server) handleHandoffConfirm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	switch err := s.svc.Retire(); {
	case errors.Is(err, ingest.ErrNotExported):
		api.WriteError(w, http.StatusConflict, "not-exported", err.Error())
		return
	case err != nil:
		// Retired already stands (refusing new work is correct either way);
		// the removal does not commit until the files are out of a
		// restart's way, so the router's retry comes back here.
		s.log.Error("handoff confirm failed", "err", err)
		api.WriteError(w, http.StatusInternalServerError, "retire", err.Error())
		return
	}
	s.log.Info("handoff confirmed")
	api.WriteJSON(w, http.StatusOK, api.ConfirmAck{Instance: s.cfg.Instance, HandedOff: true})
}

// handleLedgerAdopt takes over dedupe obligations during a membership
// change: the named shards join the admitted ledger (WAL-durably) so
// client retries of already-merged shards answer 202+duplicate here
// instead of double-merging. Pure ledger — no samples move.
func (s *Server) handleLedgerAdopt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	body, err := api.ReadBody(w, r, "request", s.cfg.MaxBodyBytes, nil)
	if err != nil {
		return
	}
	var req api.Adopt
	if err := json.Unmarshal(body, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "malformed", err.Error())
		return
	}
	if req.From == "" || len(req.Shards) == 0 {
		api.WriteError(w, http.StatusBadRequest, "malformed", "adopt needs a donor instance and at least one shard id")
		return
	}
	adopted, err := s.svc.AdoptShards(req.From, req.Shards)
	if err != nil {
		s.refuse(w, err, "adopt_from", req.From)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.AdoptAck{Instance: s.cfg.Instance, From: req.From, Adopted: adopted, Total: len(req.Shards)})
}

// query wraps a read handler with the overload controls: shed above the
// concurrency high-water mark, then run under a per-request deadline.
func (s *Server) query(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.count(&s.stats.Queries)
		if n := s.inFlight.Add(1); n > int64(s.cfg.MaxQueries) {
			s.inFlight.Add(-1)
			s.count(&s.stats.QueriesShed)
			api.WriteError(w, http.StatusServiceUnavailable, "overloaded",
				fmt.Sprintf("query concurrency above high-water mark (%d in flight)", s.cfg.MaxQueries))
			return
		}
		defer s.inFlight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryDeadline)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// deadlineExpired replies 504 when the per-request deadline fired before
// (or while) the handler ran, and reports whether it did.
func (s *Server) deadlineExpired(w http.ResponseWriter, r *http.Request) bool {
	select {
	case <-r.Context().Done():
		api.WriteError(w, http.StatusGatewayTimeout, "deadline",
			fmt.Sprintf("query deadline %v exceeded", s.cfg.QueryDeadline))
		return true
	default:
		return false
	}
}

// hotRow is a /v1/hotpcs row without rates; maxErr 0 (an exact row) is
// omitted.
func hotRow(pc, samples uint64, estCount float64, maxErr uint64) api.HotPC {
	row := api.HotPC{PCCount: api.PCCount{PC: fmt.Sprintf("%#x", pc), Samples: samples, EstCount: estCount}}
	if maxErr > 0 {
		row.MaxErr = &maxErr
	}
	return row
}

// accRow is the /v1/hotpcs row of an accumulator whose count estimate
// is estCount.
func accRow(a *profile.PCAccum, estCount float64, maxErr uint64) api.HotPC {
	row := hotRow(a.PC, a.Samples, estCount, maxErr)
	row.Rates = &api.Rates{
		RetiredPct:    100 * profile.RateEstimate(a.Retired(), a.Samples),
		DCacheMissPct: 100 * profile.RateEstimate(a.EventCount(core.EvDCacheMiss), a.Samples),
		MispredictPct: 100 * profile.RateEstimate(a.EventCount(core.EvMispredict), a.Samples),
	}
	if a.InProgressCount > 0 {
		row.MeanInProgress = float64(a.InProgressSum) / float64(a.InProgressCount)
	}
	return row
}

// handleHotPCs serves the top-N hot PCs, every shape from published
// state wherever that state can answer:
//
//   - default: O(n) from the aggregate's published sketch view — no
//     lock, "approx": true, with "error_bound" (the maximum true count
//     of any PC NOT listed: the sketch floor, or the first cut row's
//     estimate when higher) and per-row "max_err" (the row estimate's
//     maximum overcount; 0 whenever the aggregate has fewer distinct
//     PCs than the sketch capacity, in which case the rows are the
//     exact ones)
//   - ?window=30s: from the time-bucketed ring — only samples merged in
//     the last 30s count; always approximate, with the same bound over
//     the merged buckets, and the rows carry no
//     rates: the ring keeps counts, not accumulators. The ring keeps
//     its last merge, so a poll pays the O(K * buckets) merge only
//     after a write or a bucket boundary
//   - ?sketch=false: the exact top n, "approx": false. When the view
//     certifies it (View.ExactTop: the n-th exact count among the
//     tracked rows is strictly above the sketch floor, so no untracked
//     PC can enter or tie) it is served lock-free in O(K) with
//     "certified": true and "epoch" = the epoch the rows were built at;
//     otherwise (flat distributions, n above the sketch capacity) it is
//     the O(DB log n) scan under the read lock, which contends with the
//     merge loop. Both produce the same rows for the same aggregate
//     state
func (s *Server) handleHotPCs(w http.ResponseWriter, r *http.Request) {
	n, ok := api.TopN(w, r)
	if !ok {
		return
	}
	sketch, ok := api.BoolParam(w, r, "sketch", true)
	if !ok {
		return
	}
	window, ok := api.DurationParam(w, r, "window")
	if !ok {
		return
	}
	if window > 0 && !sketch {
		api.BadParam(w, "window", "windowed answers are sketch-only; drop sketch=false")
		return
	}
	if s.deadlineExpired(w, r) {
		return
	}
	agg := s.svc.Aggregate()
	var (
		reply api.HotPCs
		v     *profile.View // the view the rows are scaled by, and whose counters the reply carries
	)
	switch {
	case window > 0:
		res := agg.WindowHotPCs(window, n)
		v = agg.View()
		reply.PCs = make([]api.HotPC, 0, len(res.Rows))
		for _, e := range res.Rows {
			reply.PCs = append(reply.PCs, hotRow(e.PC, e.Count, v.Estimate(e.Count), e.Err))
		}
		reply.Approx, reply.ErrorBound = true, &res.Floor
		reply.Window = &api.Window{WindowMS: res.Window.Milliseconds(), Clamped: res.Clamped, Buckets: &res.Buckets, Samples: res.Samples}
	case sketch:
		v = agg.View()
		topk := v.TopK[:min(n, len(v.TopK))]
		reply.PCs = make([]api.HotPC, 0, len(topk))
		for i := range topk {
			reply.PCs = append(reply.PCs, accRow(&topk[i].Acc, v.Estimate(topk[i].Acc.Samples), topk[i].MaxErr))
		}
		bound := v.Floor
		if len(v.TopK) > n {
			bound = max(bound, v.TopK[n].Est) // the rows cut: estimates never undercount
		}
		reply.Approx, reply.ErrorBound, reply.Epoch = true, &bound, &v.Epoch
	default:
		v = agg.View()
		if top, ok := v.ExactTop(n); ok {
			reply.PCs = make([]api.HotPC, 0, len(top))
			for _, a := range top {
				reply.PCs = append(reply.PCs, accRow(a, v.Estimate(a.Samples), 0))
			}
			reply.Certified, reply.Epoch = true, &v.RowsEpoch
			break
		}
		var accs []profile.PCAccum
		accs, v = agg.HotPCsExact(n) // v: the view of the instant the rows were read
		reply.PCs = make([]api.HotPC, 0, len(accs))
		for i := range accs {
			reply.PCs = append(reply.PCs, accRow(&accs[i], v.Estimate(accs[i].Samples), 0))
		}
	}
	// The counters come from ONE snapshot, so loss_rate is lost/(samples+lost).
	reply.Samples, reply.Lost, reply.LossRate = v.Counters.Samples, v.Counters.Lost, v.Counters.LossRate
	api.WriteJSON(w, http.StatusOK, reply)
}

// eventByName maps wire names ("dcache-miss") to event bits, built from
// the core package's own Stringer so the two can't drift.
var eventByName = func() map[string]core.Event {
	m := make(map[string]core.Event)
	for ev := core.Event(1); ev != 0 && ev <= core.KnownEvents; ev <<= 1 {
		m[ev.String()] = ev
	}
	return m
}()

// handleEstimate serves the per-PC rollup. By default it answers from
// the published sketch view when the PC is among the tracked top-K — a
// lock-free read, marked "approx": true with the row's "max_err" — and
// falls back to the exact read-locked path for colder PCs (or always,
// with ?sketch=false), marked "approx": false.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	pcStr := r.URL.Query().Get("pc")
	if pcStr == "" {
		api.BadParam(w, "pc", "required (hex like 0x4a0 or decimal)")
		return
	}
	pc, err := strconv.ParseUint(pcStr, 0, 64)
	if err != nil {
		api.BadParam(w, "pc", fmt.Sprintf("%q is not an address (hex like 0x4a0 or decimal)", pcStr))
		return
	}
	sketch, ok := api.BoolParam(w, r, "sketch", true)
	if !ok {
		return
	}
	evName := r.URL.Query().Get("event")
	var queryEv core.Event
	if evName != "" {
		ev, known := eventByName[evName]
		if !known {
			api.BadParam(w, "event", fmt.Sprintf("unknown event %q", evName))
			return
		}
		queryEv = ev
	}
	if s.deadlineExpired(w, r) {
		return
	}
	agg := s.svc.Aggregate()
	// acc and the view v that scales its estimates are one instant's:
	// the view's own row, or Get's copy and view from one read lock.
	var (
		acc    profile.PCAccum
		v      *profile.View
		found  bool
		maxErr *uint64 // set when the view's row answers: approximate
	)
	if sketch {
		v = agg.View()
		if hv := v.Get(pc); hv != nil {
			acc, found, maxErr = hv.Acc, true, &hv.MaxErr
		}
	}
	if !found {
		acc, v, found = agg.Get(pc)
	}
	if !found {
		api.WriteError(w, http.StatusNotFound, "unknown-pc", fmt.Sprintf("pc %#x has no samples", pc))
		return
	}
	resp := api.Estimate{
		PCCount:       api.PCCount{PC: fmt.Sprintf("%#x", pc), Samples: acc.Samples, EstCount: v.Estimate(acc.Samples), MaxErr: maxErr},
		Approx:        maxErr != nil,
		MeanLatencies: make(map[string]float64),
	}
	if evName != "" {
		k := acc.EventCount(queryEv)
		rate := profile.RateEstimate(k, acc.Samples)
		resp.OneEvent = &api.OneEvent{Event: evName, EstEventCount: v.Estimate(k), EventRate: &rate}
	} else {
		events := make(map[string]float64)
		for name, ev := range eventByName {
			if k := acc.EventCount(ev); k > 0 {
				events[name] = v.Estimate(k)
			}
		}
		resp.EstEventCounts = events
	}
	for i := 0; i < profile.NumLatencyKinds; i++ {
		if acc.LatCount[i] > 0 {
			resp.MeanLatencies[profile.LatencyKindName(i)] = acc.MeanLatency(i)
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// serverStats is the /v1/stats payload: the ingest stats plus the HTTP
// layer's own.
type serverStats struct {
	ingest.Stats
	Instance        string           `json:"instance,omitempty"`
	Submissions     uint64           `json:"submissions"`
	HandoffRequests uint64           `json:"handoff_requests"`
	Queries         uint64           `json:"queries"`
	QueriesShed     uint64           `json:"queries_shed"`
	InFlight        int64            `json:"queries_in_flight"`
	Witness         api.WitnessStats `json:"witness"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Stats, st.Instance = s.svc.Stats(), s.cfg.Instance
	st.InFlight, st.Witness = s.inFlight.Load(), s.witness.stats()
	api.WriteJSON(w, http.StatusOK, st)
}

// handleLedger publishes the admission ledger: the distinct shard ids
// this instance has admitted (queued or merged). Anti-entropy compares a
// peer's witness ledger against them to find submissions the instance
// lost with its disk; the dispositions let a membership change classify
// each id (api.Ledger).
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	// One ledger read: the router classifies ids from this payload, so
	// its sections must describe the same instant.
	led := s.svc.Ledger()
	led.Instance = s.cfg.Instance
	api.WriteJSON(w, http.StatusOK, led)
}

// handleReadyz flips to 503 the moment a drain begins or the persistence
// breaker opens — load balancers stop routing new work while in-flight
// requests finish. One Stats read decides, so the answer is one instant's.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	switch { // st.WAL is nil without a WAL
	case st.Draining:
		api.WriteError(w, http.StatusServiceUnavailable, "draining", "shutting down: submissions refused, queue flushing")
	case st.Breaker.State == "open":
		api.WriteError(w, http.StatusServiceUnavailable, "breaker-open", "checkpoint persistence suspended")
	case st.WAL != nil && st.WAL.Wedged:
		// A write or fsync failure wedged the durability log: every
		// submission 503s until a restart replays what survived. Routers
		// treat this like draining and steer submissions away.
		api.WriteError(w, http.StatusServiceUnavailable, "wal-failed", "WAL wedged by a write/fsync failure; restart required")
	case st.WAL != nil && st.WAL.Stalled:
		// The durability log has records waiting on fsync for longer than
		// the stall threshold — every 202 would block on a sick disk.
		// Routers treat this like draining and steer submissions away.
		api.WriteError(w, http.StatusServiceUnavailable, "wal-stalled", "WAL fsync is not keeping up; submissions would stall")
	default:
		api.WriteJSON(w, http.StatusOK, api.Ready{Ready: true, QueueDepth: st.Queue.Depth})
	}
}
