package cluster

import (
	"encoding/json"
	"sort"
)

// The fleet answer to a query is a pure function of the instances'
// answers: the three merges below take decoded legs and return the
// response object, before the degradation fields (partial, missing) the
// router adds for legs that never made it here. Counts and estimates are
// additive across the tier (shards are placed whole, so each instance
// holds an independent sampled subset); rates and means re-weight by
// contributing samples.

// instanceHotPCs mirrors the per-instance /v1/hotpcs payload.
type instanceHotPCs struct {
	Samples uint64 `json:"samples"`
	Lost    uint64 `json:"lost"`
	// Sketch fields (absent on ?sketch=false answers): ErrorBound is the
	// instance's sketch floor — the maximum true count of any PC it did
	// NOT list; WindowSamples is the exact in-window total on windowed
	// answers.
	Approx        bool        `json:"approx"`
	ErrorBound    uint64      `json:"error_bound"`
	WindowMS      int64       `json:"window_ms"`
	WindowClamped bool        `json:"window_clamped"`
	WindowSamples uint64      `json:"window_samples"`
	PCs           []hotPCsRow `json:"pcs"`
}

type hotPCsRow struct {
	PC             string  `json:"pc"`
	Samples        uint64  `json:"samples"`
	MaxErr         uint64  `json:"max_err"`
	EstCount       float64 `json:"est_count"`
	RetiredPct     float64 `json:"retired_pct"`
	DCacheMissPct  float64 `json:"dcache_miss_pct"`
	MispredictPct  float64 `json:"mispredict_pct"`
	MeanInProgress float64 `json:"mean_inprogress_cycles"`
}

// mergeHotPCs merges per-instance top lists into the fleet's top n.
//
// Sketch answers merge because space-saving partials merge: estimates
// add where a PC is present; where an instance omitted the PC, that
// instance may still have counted it up to its error_bound (floor), so
// the merged row's max_err gains the absent instances' floors. The
// fleet error_bound is the sum of floors — the maximum true fleet-wide
// count of any PC NOT listed. Windowed rows carry sketch estimates only,
// no rate fields.
func mergeHotPCs(legs []instanceHotPCs, n int, windowed bool) map[string]any {
	type mergedPC struct {
		samples, maxErr uint64
		// floorsIn sums the floors of the legs that DID list the PC; every
		// other leg's floor is owed to the row's max_err.
		floorsIn                           uint64
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
		windowMS = max(windowMS, one.WindowMS)
		for _, row := range one.PCs {
			m := merged[row.PC]
			if m == nil {
				m = &mergedPC{}
				merged[row.PC] = m
			}
			ws := float64(row.Samples)
			m.samples += row.Samples
			m.maxErr += row.MaxErr
			m.floorsIn += one.ErrorBound
			m.est += row.EstCount
			m.retired += ws * row.RetiredPct
			m.dmiss += ws * row.DCacheMissPct
			m.mispredict += ws * row.MispredictPct
			m.inprog += ws * row.MeanInProgress
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
		if maxErr := m.maxErr + errorBound - m.floorsIn; maxErr > 0 {
			row["max_err"] = maxErr
		}
		if ws > 0 && !windowed {
			row["retired_pct"] = m.retired / ws
			row["dcache_miss_pct"] = m.dmiss / ws
			row["mispredict_pct"] = m.mispredict / ws
			row["mean_inprogress_cycles"] = m.inprog / ws
		}
		rows = append(rows, row)
	}
	resp := map[string]any{
		"samples":   samples,
		"lost":      lost,
		"pcs":       rows,
		"approx":    approx,
		"loss_rate": 0.0,
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
	}
	return resp
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

// mergeEstimate merges one PC's estimator rollups: counts sum, rates and
// mean latencies re-weight by contributing samples (an approximation
// for latencies, whose per-kind contributor counts stay instance-local;
// good to the extent shard placement is unbiased, which hash placement
// is).
func mergeEstimate(pc string, legs []instanceEstimate) map[string]any {
	var (
		samples, maxErr    uint64
		approx             bool
		est, estEv, rateWS float64
		events             = make(map[string]float64)
		lats               = make(map[string]float64)
		event              string
	)
	for _, one := range legs {
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
	if samples > 0 {
		for k := range lats {
			lats[k] /= float64(samples)
		}
	}
	resp := map[string]any{
		"pc":             pc,
		"samples":        samples,
		"est_count":      est,
		"approx":         approx,
		"mean_latencies": lats,
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
	return resp
}

// instanceStats is the subset of per-instance stats the fleet rollup
// sums, and the rollup itself: served as "fleet", with Instances the
// number of instances that answered. The full per-instance payload
// rides alongside verbatim.
type instanceStats struct {
	Samples     uint64 `json:"samples"`
	Lost        uint64 `json:"lost"`
	Merged      uint64 `json:"merged"`
	SamplesLost uint64 `json:"samples_lost"`
	HandoffsIn  uint64 `json:"handoffs_in"`
	Instances   int    `json:"instances"`
}

// mergeStats sums the fleet rollup — the fleet-wide conservation
// invariant's right-hand side (Σ Samples+Lost over the instances that
// answered) — and carries each instance's full stats, from[i].body for
// legs[i], beside it.
func mergeStats(from []leg, legs []instanceStats) map[string]any {
	perInstance := make(map[string]json.RawMessage, len(legs))
	fleet := instanceStats{Instances: len(legs)}
	for i, one := range legs {
		fleet.Samples += one.Samples
		fleet.Lost += one.Lost
		fleet.Merged += one.Merged
		fleet.SamplesLost += one.SamplesLost
		fleet.HandoffsIn += one.HandoffsIn
		perInstance[from[i].id] = from[i].body
	}
	return map[string]any{"fleet": fleet, "instances": perInstance}
}
