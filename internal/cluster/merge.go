package cluster

import (
	"encoding/json"
	"sort"

	"profileme/internal/api"
)

// The fleet answer to a query is a pure function of the instances'
// answers: the three merges below take decoded legs and return the
// response object, before the degradation fields (partial, missing) the
// router adds for legs that never made it here. Counts and estimates are
// additive across the tier (shards are placed whole, so each instance
// holds an independent sampled subset); rates and means re-weight by
// contributing samples.

// mergeHotPCs merges per-instance top lists into the fleet's top n.
//
// Sketch answers merge because space-saving partials merge: estimates
// add where a PC is present; where an instance omitted the PC, that
// instance may still have counted it up to its error_bound, so the
// merged row's max_err gains the absent instances' bounds. The fleet
// error_bound bounds the true fleet-wide count of every PC NOT listed:
// a PC no leg listed is within the sum of the legs' bounds, and a merged
// row cut to n within its samples + max_err, so the bound is the larger
// of the two. An exact leg that filled its over-fetch (legTopN) may have
// cut PCs, each seen there at most as often as its last listed row, so
// that row's samples is the leg's bound, and the merged answer is
// approximate whenever any leg's bound is above 0. Windowed rows carry
// sketch estimates only, no rates.
func mergeHotPCs(legs []api.HotPCs, n int, windowed bool) api.HotPCs {
	type mergedPC struct {
		samples, maxErr uint64
		// boundsIn sums the bounds of the legs that DID list the PC; every
		// other leg's bound is owed to the row's max_err.
		boundsIn                           uint64
		est                                float64
		retired, dmiss, mispredict, inprog float64 // sample-weighted sums
	}
	merged := make(map[string]*mergedPC)
	var (
		out       api.HotPCs
		win       api.Window
		legBounds uint64 // the sum of the legs' error bounds
	)
	for _, one := range legs {
		out.Samples += one.Samples
		out.Lost += one.Lost
		out.Approx = out.Approx || one.Approx
		bound := value(one.ErrorBound)
		if rows := one.PCs; !one.Approx && len(rows) >= legTopN(n) {
			bound = rows[len(rows)-1].Samples
		}
		legBounds += bound
		if w := one.Window; w != nil {
			win.Samples += w.Samples
			win.Clamped = win.Clamped || w.Clamped
			win.WindowMS = max(win.WindowMS, w.WindowMS)
		}
		for _, row := range one.PCs {
			m := merged[row.PC]
			if m == nil {
				m = &mergedPC{}
				merged[row.PC] = m
			}
			m.samples += row.Samples
			m.maxErr += value(row.MaxErr)
			m.boundsIn += bound
			m.est += row.EstCount
			if r := row.Rates; r != nil {
				ws := float64(row.Samples)
				m.retired += ws * r.RetiredPct
				m.dmiss += ws * r.DCacheMissPct
				m.mispredict += ws * r.MispredictPct
				m.inprog += ws * r.MeanInProgress
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
	// rowErr is a merged row's max_err: its legs' own plus the bounds of
	// the legs that omitted it.
	rowErr := func(m *mergedPC) uint64 { return m.maxErr + legBounds - m.boundsIn }
	errorBound := legBounds
	if len(pcs) > n {
		for _, pc := range pcs[n:] {
			m := merged[pc]
			errorBound = max(errorBound, m.samples+rowErr(m))
		}
		pcs = pcs[:n]
	}
	out.PCs = make([]api.HotPC, 0, len(pcs))
	for _, pc := range pcs {
		m := merged[pc]
		row := api.HotPC{PCCount: api.PCCount{PC: pc, Samples: m.samples, EstCount: m.est}}
		if maxErr := rowErr(m); maxErr > 0 {
			row.MaxErr = &maxErr
		}
		if ws := float64(m.samples); ws > 0 && !windowed {
			row.Rates = &api.Rates{
				RetiredPct:     m.retired / ws,
				DCacheMissPct:  m.dmiss / ws,
				MispredictPct:  m.mispredict / ws,
				MeanInProgress: m.inprog / ws,
			}
		}
		out.PCs = append(out.PCs, row)
	}
	if out.Approx = out.Approx || legBounds > 0; out.Approx {
		out.ErrorBound = &errorBound
	}
	if windowed {
		out.Window = &win
	}
	if out.Samples+out.Lost > 0 {
		out.LossRate = float64(out.Lost) / float64(out.Samples+out.Lost)
	}
	return out
}

// legTopN is how many rows the router asks each instance for when the
// fleet wants n: an over-fetch, so a PC hot fleet-wide but trailing
// locally still surfaces.
func legTopN(n int) int { return min(n*4, api.MaxTopN) }

// mergeEstimate merges one PC's estimator rollups: counts sum, rates and
// mean latencies re-weight by contributing samples (an approximation
// for latencies, whose per-kind contributor counts stay instance-local;
// good to the extent shard placement is unbiased, which hash placement
// is).
func mergeEstimate(pc string, legs []api.Estimate) api.Estimate {
	var (
		maxErr uint64
		sum    api.OneEvent // the ?event= sums, from the legs that carry one
		rateWS float64
		events = make(map[string]float64)
	)
	out := api.Estimate{PCCount: api.PCCount{PC: pc}, MeanLatencies: make(map[string]float64)}
	for _, one := range legs {
		out.Samples += one.Samples
		out.Approx = out.Approx || one.Approx
		maxErr += value(one.MaxErr)
		out.EstCount += one.EstCount
		ev := value(one.OneEvent)
		sum.Event, sum.EstEventCount = ev.Event, sum.EstEventCount+ev.EstEventCount
		rateWS += float64(one.Samples) * value(ev.EventRate)
		for k, v := range one.EstEventCounts {
			events[k] += v
		}
		for k, v := range one.MeanLatencies {
			out.MeanLatencies[k] += float64(one.Samples) * v
		}
	}
	if out.Samples > 0 {
		for k := range out.MeanLatencies {
			out.MeanLatencies[k] /= float64(out.Samples)
		}
	}
	if out.Approx {
		out.MaxErr = &maxErr
	}
	if sum.Event != "" {
		if out.Samples > 0 {
			rate := rateWS / float64(out.Samples)
			sum.EventRate = &rate
		}
		out.OneEvent = &sum
	} else {
		out.EstEventCounts = events
	}
	return out
}

// value is what p points at, or T's zero value for a field a leg omitted.
func value[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
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

// fleetStats is the fleet half of the router's /v1/stats answer.
type fleetStats struct {
	Fleet     instanceStats              `json:"fleet"`
	Instances map[string]json.RawMessage `json:"instances"`
}

// mergeStats sums the fleet rollup — the fleet-wide conservation
// invariant's right-hand side (Σ Samples+Lost over the instances that
// answered) — and carries each instance's full stats, from[i].body for
// legs[i], beside it.
func mergeStats(from []leg, legs []instanceStats) fleetStats {
	out := fleetStats{Fleet: instanceStats{Instances: len(legs)}, Instances: make(map[string]json.RawMessage, len(legs))}
	for i, one := range legs {
		out.Fleet.Samples += one.Samples
		out.Fleet.Lost += one.Lost
		out.Fleet.Merged += one.Merged
		out.Fleet.SamplesLost += one.SamplesLost
		out.Fleet.HandoffsIn += one.HandoffsIn
		out.Instances[from[i].id] = from[i].body
	}
	return out
}
