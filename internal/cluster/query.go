package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"profileme/internal/api"
)

// Every fleet query is gather → decode → merge: fan the GET out to the
// live members, classify and decode what came back, and hand the typed
// legs to a pure merge (merge.go). Losing legs never fails the query; it
// degrades it to an explicit partial result.

// leg is one instance's answer to a scatter-gather query.
type leg struct {
	id     string
	status int
	body   []byte
	err    error
}

// fanout is one gather's outcome, all of it relative to the one
// membership snapshot the gather started from.
type fanout struct {
	oks     []leg    // answered (any status), by id
	missing []string // asked, no answer; sorted
	down    []string // not asked: members known Down
	epoch   uint64
}

// gather fans a GET out to every live member with a per-leg deadline and
// hedged stragglers. It never fails as a whole: losing legs is the
// partial-result degradation the caller reports explicitly. A leg that
// answers proves its instance alive — not that it admits submissions, so
// a Draining member stays Draining.
func (rt *Router) gather(ctx context.Context, pathAndQuery string) fanout {
	live, down, epoch := rt.members.targets()
	f := fanout{epoch: epoch}
	for _, h := range down {
		f.down = append(f.down, h.id)
	}
	results := make(chan leg, len(live))
	for _, h := range live {
		go func(h hop) {
			results <- rt.fetchHedged(ctx, h.id, h.url+pathAndQuery)
		}(h)
	}
	for range live {
		l := <-results
		if l.err != nil {
			rt.count(&rt.stats.LegsFailed)
			// A leg that died because the CLIENT disconnected (the parent
			// request context canceled, which cancels every derived per-leg
			// context) says nothing about the instance's health — charging
			// it a failure would let one impatient client mark the whole
			// tier Down.
			if ctx.Err() == nil {
				rt.observe(l.id, sigFailed, "path", pathAndQuery, "err", l.err)
			}
			f.missing = append(f.missing, l.id)
			continue
		}
		rt.observe(l.id, sigAnswered, "path", pathAndQuery)
		f.oks = append(f.oks, l)
	}
	sort.Slice(f.oks, func(i, j int) bool { return f.oks[i].id < f.oks[j].id })
	sort.Strings(f.missing)
	return f
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
	rt.count(&rt.stats.Hedges)
	hedge := make(chan leg, 1)
	go func() { hedge <- rt.fetchOne(ctx, id, url) }()
	select {
	case l := <-first:
		return l
	case l := <-hedge:
		if l.err == nil {
			rt.count(&rt.stats.HedgeWins)
		}
		return l
	}
}

func (rt *Router) fetchOne(ctx context.Context, id, url string) leg {
	status, body, err := roundTrip(ctx, rt.client, http.MethodGet, url, nil, 0, 8<<20)
	return leg{id: id, status: status, body: body, err: err}
}

// decoded is a fan-out's answers sorted into what a merge can use.
type decoded[T any] struct {
	from []leg // from[i] is the 200 answer legs[i] was decoded from
	legs []T
	// bad is one instance's typed 400: the request itself is malformed (a
	// bad window, an unknown event), and every instance says the same.
	bad []byte
	// missing adds to the fan-out's the legs that answered something
	// unusable: an undecodable 200, or a status that is none of 200, 400
	// and quiet. down is the fan-out's.
	missing, down []string
}

// decodeLegs classifies a fan-out's answers. quiet is a status that just
// means "nothing here" (404 from /v1/estimate: the instance holds no
// samples for the PC) and is neither an answer nor a loss; 0 for none.
func decodeLegs[T any](f fanout, quiet int) decoded[T] {
	d := decoded[T]{missing: f.missing, down: f.down}
	for _, l := range f.oks {
		var one T
		switch {
		case l.status == http.StatusBadRequest:
			d.bad = l.body
		case l.status == quiet:
		case l.status != http.StatusOK || json.Unmarshal(l.body, &one) != nil:
			d.missing = append(d.missing, l.id)
		default:
			d.from = append(d.from, l)
			d.legs = append(d.legs, one)
		}
	}
	return d
}

// askFleet is the head every merged query shares: gather and decode, and
// answer for the merge when there is nothing to merge — 503 when no
// instance answered at all, an instance's own 400 relayed when that is
// all anyone said. ok is false when it has answered.
func askFleet[T any](rt *Router, w http.ResponseWriter, r *http.Request, pathAndQuery string, quiet int) (d decoded[T], ok bool) {
	f := rt.gather(r.Context(), pathAndQuery)
	if len(f.oks) == 0 {
		writeMissing(w, http.StatusServiceUnavailable, "no-instances", "no collector instance answered", f.missing)
		return d, false
	}
	d = decodeLegs[T](f, quiet)
	if len(d.legs) == 0 && d.bad != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write(d.bad)
		return d, false
	}
	return d, true
}

// writeMissing refuses a fleet query, naming the members that did not
// answer ("missing": null when none, as TestMergeWireCompat pins).
func writeMissing(w http.ResponseWriter, status int, kind, msg string, missing []string) {
	api.WriteJSON(w, status, struct {
		api.Error
		Missing []string `json:"missing"`
	}{api.Error{Msg: msg, Kind: kind}, missing})
}

// degraded is a merged answer's degradation contract: "partial" is true
// when any member's data is not in it, and "instances_missing" counts
// them. Members already known Down were not asked and count too — a
// reader must be able to see that the fleet view is incomplete.
func (rt *Router) degraded(missing, down []string) *api.Degraded {
	missing = append(missing, down...)
	sort.Strings(missing)
	if len(missing) > 0 {
		rt.count(&rt.stats.PartialsServed)
	}
	return &api.Degraded{Partial: len(missing) > 0, InstancesMissing: len(missing), Missing: missing}
}

// handleHotPCs serves the fleet's top n. Each instance is asked for
// legTopN(n) rows (4× n, capped); ?sketch= and ?window= pass through to
// the instances.
func (rt *Router) handleHotPCs(w http.ResponseWriter, r *http.Request) {
	n, ok := api.TopN(w, r)
	if !ok {
		return
	}
	q := "/v1/hotpcs?n=" + strconv.Itoa(legTopN(n))
	if v := r.URL.Query().Get("sketch"); v != "" {
		q += "&sketch=" + url.QueryEscape(v)
	}
	window := r.URL.Query().Get("window")
	if window != "" {
		q += "&window=" + url.QueryEscape(window)
	}
	if d, ok := askFleet[api.HotPCs](rt, w, r, q, 0); ok {
		resp := mergeHotPCs(d.legs, n, window != "")
		resp.Degraded = rt.degraded(d.missing, d.down)
		api.WriteJSON(w, http.StatusOK, resp)
	}
}

// handleEstimate serves one PC's fleet estimate. An instance answering
// 404 simply holds no samples for the PC.
func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	pc := r.URL.Query().Get("pc")
	if pc == "" {
		api.WriteError(w, http.StatusBadRequest, "param", "pc parameter required")
		return
	}
	d, ok := askFleet[api.Estimate](rt, w, r, "/v1/estimate?"+r.URL.RawQuery, http.StatusNotFound)
	if !ok {
		return
	}
	if len(d.legs) == 0 {
		writeMissing(w, http.StatusNotFound, "unknown-pc",
			fmt.Sprintf("pc %s has no samples on any reachable instance", pc), d.missing)
		return
	}
	resp := mergeEstimate(pc, d.legs)
	resp.Degraded = rt.degraded(d.missing, d.down)
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleStats serves the fleet rollup plus the router's own counters. It
// answers even when no instance does: the router's side is still news.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	f := rt.gather(r.Context(), "/v1/stats")
	d := decodeLegs[instanceStats](f, 0)
	api.WriteJSON(w, http.StatusOK, struct {
		fleetStats
		Router    RouterStats     `json:"router"`
		Epoch     uint64          `json:"epoch"`
		Migration migrationStatus `json:"migration"`
		*api.Degraded
	}{mergeStats(d.from, d.legs), rt.Stats(), f.epoch, rt.migration.snapshot(), rt.degraded(d.missing, d.down)})
}
