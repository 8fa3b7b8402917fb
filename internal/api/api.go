// Package api declares the collector tier's wire once: the /v1/hotpcs
// and /v1/estimate bodies pmsimd fills and pmrouter decodes and merges,
// the router's degradation fields, the control bodies the router and an
// instance exchange (control.go), the error body, the query-parameter
// parsers and the bounded body reader. It imports nothing of this
// module. A field some answers omit is a pointer with omitempty, so
// absent and zero stay distinct.
package api

import (
	"encoding/json"
	"net/http"
)

// HotPCs is the /v1/hotpcs answer: the aggregate's counters, the rows,
// and whether they are approximate.
type HotPCs struct {
	Samples  uint64  `json:"samples"`
	Lost     uint64  `json:"lost"`
	LossRate float64 `json:"loss_rate"`
	PCs      []HotPC `json:"pcs"`
	Approx   bool    `json:"approx"`
	// ErrorBound, on approximate answers only, is the most any PC not
	// in PCs was seen, those cut to n included: the sketch floor, or the
	// first cut row's estimate when higher (merged: the sum of the legs'
	// bounds, or a cut merged row's samples + max_err when higher).
	ErrorBound *uint64 `json:"error_bound,omitempty"`
	// Certified marks an exact answer served from the view; Epoch is
	// the view epoch of a sketch or certified answer's rows.
	Certified bool    `json:"certified,omitempty"`
	Epoch     *uint64 `json:"epoch,omitempty"`
	*Window
	*Degraded
}

// PCCount is what a hot-PC row and an estimate share: the PC, its
// samples and their loss-corrected count estimate (§5). MaxErr bounds a
// sketch's overcount: a row omits it when 0, an estimate carries it when
// approximate.
type PCCount struct {
	PC       string  `json:"pc"`
	Samples  uint64  `json:"samples"`
	EstCount float64 `json:"est_count"`
	MaxErr   *uint64 `json:"max_err,omitempty"`
}

// HotPC is one /v1/hotpcs row. A windowed row's Samples is itself a
// sketch estimate, and it has no Rates: the window ring keeps counts.
type HotPC struct {
	PCCount
	*Rates
}

// Rates are a row's event rates (percent of samples) and its mean
// fetch-to-retire-ready cycles.
type Rates struct {
	RetiredPct     float64 `json:"retired_pct"`
	DCacheMissPct  float64 `json:"dcache_miss_pct"`
	MispredictPct  float64 `json:"mispredict_pct"`
	MeanInProgress float64 `json:"mean_inprogress_cycles"`
}

// Window is a ?window= answer's lookback as served and its exact sample
// count. Buckets is an instance's own; a merged answer omits it.
type Window struct {
	WindowMS int64  `json:"window_ms"`
	Clamped  bool   `json:"window_clamped"`
	Buckets  *int   `json:"window_buckets,omitempty"`
	Samples  uint64 `json:"window_samples"`
}

// Estimate is the /v1/estimate answer. One asked for an ?event= carries
// OneEvent; any other estimates every event the PC was sampled with, by
// name, and omits the map when there is none.
type Estimate struct {
	PCCount
	Approx bool `json:"approx"`
	*OneEvent
	EstEventCounts map[string]float64 `json:"est_event_counts,omitempty"`
	MeanLatencies  map[string]float64 `json:"mean_latencies"`
	*Degraded
}

// OneEvent is an ?event= estimate; a merge over no samples omits
// EventRate.
type OneEvent struct {
	Event         string   `json:"event"`
	EstEventCount float64  `json:"est_event_count"`
	EventRate     *float64 `json:"event_rate,omitempty"`
}

// Degraded is what the router adds to a merged answer: whether, how
// many and which members' data is not in it.
type Degraded struct {
	Partial          bool     `json:"partial"`
	InstancesMissing int      `json:"instances_missing"`
	Missing          []string `json:"missing,omitempty"`
}

// Error is the body of every refusal: a message and a kind a client
// branches on ("queue-full", "param", ...).
type Error struct {
	Msg  string `json:"error"`
	Kind string `json:"kind"`
}

// WriteJSON answers status with v. A 429 or 503, the tier's
// backpressure, carries Retry-After: 1.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Healthz is both daemons' liveness answer: 200 while the process serves.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// WriteError answers status with the error body.
func WriteError(w http.ResponseWriter, status int, kind, msg string) {
	WriteJSON(w, status, Error{Msg: msg, Kind: kind})
}
