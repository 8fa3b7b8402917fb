package main

import (
	_ "embed"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"profileme/internal/cluster"
	"profileme/internal/traffic"
)

//go:embed specs/tier_trace.json
var tierTraceSpec []byte

// hotPollEvery is the dashboard poll merged into the arrival schedule.
const hotPollEvery = 20 * time.Millisecond

// openLoopWorkers is the open loop's connection count. An open loop
// models independent senders, so it needs enough workers that a slow
// reply never delays the next due event (traffic.late_p99_ms reports how
// late sends ran); the closed-loop workloads keep genWorkers = 2.
const openLoopWorkers = 8

// tierRunner is the open-loop tier_trace harness: a router (witness on)
// in front of three runbook instances, driven by the arrival schedule of
// the checked-in traffic spec. Every event is timed from when it was due.
type tierRunner struct {
	spec  *traffic.Spec
	pools map[string][]*shardTemplate // cohort -> payload pool
	t     *tier
	cl    *client
	off   *offered
}

func setupTierTrace(e *env) (harness, error) {
	sp, err := traffic.ParseSpec(tierTraceSpec)
	if err != nil {
		return nil, err
	}
	sp.Seed = e.derive("traffic-spec", 0)
	perCohort := 3
	if e.smoke {
		perCohort = 1
	}
	r := &tierRunner{spec: sp, pools: map[string][]*shardTemplate{}, off: newOffered()}
	for ci := range sp.Cohorts {
		c := &sp.Cohorts[ci]
		if e.smoke {
			c.Scale = 4_000
		}
		// The spec's shard count is the id space arrivals draw from (so
		// the duplicate share is the spec's); payload content comes from
		// a small pool of real simulator shards per cohort.
		ts, err := narrowTemplates(e, []string{c.Bench}, perCohort, c.Scale)
		if err != nil {
			return nil, err
		}
		r.pools[c.Name] = ts
	}
	if r.t, err = startTier(filepath.Join(e.dir, "tier"), 3); err != nil {
		return nil, err
	}
	r.cl = newClient(r.t.url, openLoopWorkers)
	if _, err := r.cl.get("/healthz"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *tierRunner) close() {
	r.cl.closeIdle()
	r.t.stop()
}

// event is one scheduled operation of the open loop.
type event struct {
	dueUS int64
	sub   *submitOp // nil for a hot-PC poll
}

// schedule expands the spec for seconds of modeled time and merges the
// hot-PC poll into it.
func (r *tierRunner) schedule(tr *tracer, seconds float64, tag string) ([]event, error) {
	sp := *r.spec
	sp.DurationS = seconds
	id := tr.begin("traffic.schedule", tag, -1)
	arrivals, err := sp.Schedule()
	tr.end(id, int64(len(arrivals)))
	if err != nil {
		return nil, err
	}
	events := make([]event, 0, len(arrivals)+int(seconds/hotPollEvery.Seconds())+1)
	for _, a := range arrivals {
		pool := r.pools[a.Cohort]
		events = append(events, event{dueUS: a.OffsetUS, sub: &submitOp{
			id:   fmt.Sprintf("%s/%s/s%05d", tag, a.Cohort, a.Shard),
			tmpl: pool[a.Shard%len(pool)],
		}})
	}
	for t := int64(0); t < int64(seconds*1e6); t += hotPollEvery.Microseconds() {
		events = append(events, event{dueUS: t})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].dueUS < events[j].dueUS })
	return events, nil
}

// openLoopResult is what one pass over a schedule measured.
type openLoopResult struct {
	ackMS, hotMS, lateMS []float64
	ackWindows           [][]float64 // ackMS split into ackWindow slices by due time
	failed               int64
	seconds              float64
}

// ackWindow is the open loop's stand-in for a round: ack percentiles are
// taken per window of due time and the median window is reported.
const ackWindow = 2 * time.Second

// drive plays events through openLoopWorkers workers: each takes the next due
// event, sleeps until it is due, and times it from the due time.
func (r *tierRunner) drive(tr *tracer, events []event) openLoopResult {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		res    openLoopResult
	)
	t0 := time.Now()
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack, hot, late []float64
			var ackDue []int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) {
					break
				}
				ev := events[i]
				due := t0.Add(time.Duration(ev.dueUS) * time.Microsecond)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late = append(late, time.Since(due).Seconds()*1e3)
				if ev.sub != nil {
					body := ev.sub.tmpl.body(ev.sub.id)
					sp := tr.begin("client.submit", ev.sub.id, -1)
					_, err := r.cl.submit(tr, sp, ev.sub.id, body)
					tr.end(sp, 0)
					if err != nil {
						failed.Add(1)
						continue
					}
					r.off.record(ev.sub.id, ev.sub.tmpl)
					ack = append(ack, time.Since(due).Seconds()*1e3)
					ackDue = append(ackDue, ev.dueUS)
				} else {
					sp := tr.begin("client.hotpcs", "", -1)
					_, err := r.cl.get("/v1/hotpcs?n=10")
					tr.end(sp, 0)
					if err != nil {
						failed.Add(1)
						continue
					}
					hot = append(hot, time.Since(due).Seconds()*1e3)
				}
			}
			mu.Lock()
			res.ackMS = append(res.ackMS, ack...)
			res.hotMS = append(res.hotMS, hot...)
			res.lateMS = append(res.lateMS, late...)
			for i, ms := range ack {
				w := int(ackDue[i] / ackWindow.Microseconds())
				for len(res.ackWindows) <= w {
					res.ackWindows = append(res.ackWindows, nil)
				}
				res.ackWindows[w] = append(res.ackWindows[w], ms)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.seconds = time.Since(t0).Seconds()
	res.failed = failed.Load()
	return res
}

func (r *tierRunner) quiesce() {
	r.t.router.WitnessFlush()
	settle(r.t.instances, r.off, 0)
}

// oracles runs the tier's output checks; it drains the instances.
func (r *tierRunner) oracles(o *outcome, tr *tracer) {
	r.quiesce()
	if body, err := r.cl.get("/v1/hotpcs?n=10"); err != nil {
		o.check(false, "router hotpcs: %v", err)
	} else {
		checkTop10(o, "router", body, r.off, nil)
	}
	checkConservation(o, r.t.instances, r.off, 0)
	// Flushed: no merge or checkpoint is in flight on any instance.
	o.metrics["live_heap_mb"] = liveHeapMB()
	for _, in := range r.t.instances {
		checkRecover(o, tr, in)
	}
}

// measure plays the whole schedule once. One operation is one
// acknowledged submission, timed from its due time; the rate is offered,
// so ops_per_s falls only when the tier cannot keep up.
func (r *tierRunner) measure(e *env) (*outcome, error) {
	o := newOutcome()
	events, err := r.schedule(nil, e.seconds, "run")
	if err != nil {
		return nil, err
	}
	res := r.drive(nil, events)
	o.attempted = int64(len(events))
	o.failed = res.failed
	o.metrics["ops_per_s"] = float64(len(res.ackMS)) / res.seconds
	latencySummary(o, res.ackWindows)
	o.detail["hot_p50_ms"] = quantile(res.hotMS, 0.50)
	o.detail["late_p99_ms"] = quantile(res.lateMS, 0.99)
	r.oracles(o, nil)
	return o, nil
}

// layers is the traced run: the schedule untraced then traced (shorter),
// then the router's own rungs — ring lookup, the hop, the witness
// forward, the scatter-gather — each against the step below it.
func (r *tierRunner) layers(e *env) (*outcome, error) {
	o := newOutcome()
	tr := e.tr
	part := e.seconds / 4

	plainEvents, err := r.schedule(nil, part, "plain")
	if err != nil {
		return nil, err
	}
	plain := r.drive(nil, plainEvents)
	r.quiesce()
	tracedEvents, err := r.schedule(tr, part, "traced")
	if err != nil {
		return nil, err
	}
	traced := r.drive(tr, tracedEvents)
	r.quiesce()
	o.attempted = int64(len(plainEvents) + len(tracedEvents))
	o.failed = plain.failed + traced.failed
	o.metrics["bench.ack_p50_ms"] = quantile(traced.ackMS, 0.50)
	o.metrics["bench.ack_p99_ms"] = quantile(traced.ackMS, 0.99)
	opLatency(o, traced.ackMS)
	o.metrics["bench.hot_p50_ms"] = quantile(traced.hotMS, 0.50)
	o.metrics["bench.hot_p99_ms"] = quantile(traced.hotMS, 0.99)
	if p := quantile(plain.ackMS, 0.50); p > 0 {
		o.metrics["bench.trace_overhead_pct"] = 100 * (quantile(traced.ackMS, 0.50) - p) / p
	}
	o.metrics["traffic.schedule_ms"] = tr.p50("traffic.schedule") / 1e6
	o.metrics["traffic.late_p99_ms"] = quantile(append(plain.lateMS, traced.lateMS...), 0.99)

	if err := r.routerLadder(e, o); err != nil {
		return nil, err
	}

	rs := r.t.router.Stats()
	o.metrics["cluster.submit_retries"] = float64(rs.SubmitRetries)
	o.metrics["cluster.failovers"] = float64(rs.Failovers)
	o.metrics["cluster.hedges"] = float64(rs.Hedges)
	o.metrics["cluster.witness_failed"] = float64(rs.WitnessFailed)
	r.quiesce()
	var most, total float64
	for _, in := range r.t.instances {
		m := float64(in.svc.Stats().Merged)
		total += m
		if m > most {
			most = m
		}
	}
	if total > 0 {
		o.metrics["cluster.placement_skew"] = most / (total / float64(len(r.t.instances)))
	}
	r.oracles(o, tr)
	o.metrics["ingest.checkpoint_ms"] = tr.p50("ingest.checkpoint") / 1e6
	o.metrics["ingest.recover_ms"] = tr.p50("ingest.recover") / 1e6
	o.metrics["bench.failed_share"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// routerLadder measures the router's rungs one connection at a time, so
// each rung's median is a clean latency rather than a queueing one.
func (r *tierRunner) routerLadder(e *env, o *outcome) error {
	tr := e.tr
	n := 200
	if e.smoke {
		n = 10
	}
	pool := r.pools[r.spec.Cohorts[0].Name]

	ring := cluster.NewRing(cluster.DefaultVNodes, 0)
	for _, in := range r.t.instances {
		ring.Add(in.id)
	}
	const lookups = 100_000
	sp := tr.begin("cluster.owner", "", -1)
	for i := 0; i < lookups; i++ {
		ring.Owner(fmt.Sprintf("web/s%05d", i%20_000))
	}
	tr.end(sp, lookups)

	// Variants of the router over the same three instances.
	variant := func(witness, sync bool) (*client, func(), error) {
		cfg := routerConfig(r.t.instances)
		cfg.Witness, cfg.WitnessSync = witness, sync
		rt, err := cluster.NewRouter(cfg)
		if err != nil {
			return nil, nil, err
		}
		hs, url, done, err := serve(rt.Handler())
		if err != nil {
			return nil, nil, err
		}
		cl := newClient(url, 1)
		return cl, func() { cl.closeIdle(); stopServer(hs, done); rt.WitnessFlush() }, nil
	}
	noWitness, stopNoWitness, err := variant(false, false)
	if err != nil {
		return err
	}
	defer stopNoWitness()
	syncWitness, stopSyncWitness, err := variant(true, true)
	if err != nil {
		return err
	}
	defer stopSyncWitness()
	direct := newClient(r.t.instances[0].url, 1)
	defer direct.closeIdle()

	post := func(name string, cl *client) {
		for i := 0; i < n; i++ {
			op := submitOp{id: fmt.Sprintf("ladder/%s/s%05d", name, i), tmpl: pool[i%len(pool)]}
			body := op.tmpl.body(op.id)
			sp := tr.begin(name, op.id, -1)
			_, err := cl.submit(nil, -1, op.id, body)
			tr.end(sp, 0)
			o.attempted++
			if err != nil {
				o.failed++
				continue
			}
			r.off.record(op.id, op.tmpl)
		}
	}
	post("server.post.direct", direct)
	post("cluster.post.nowitness", noWitness)
	post("cluster.post.witnesssync", syncWitness)
	r.quiesce()

	get := func(name string, cl *client) {
		for i := 0; i < n; i++ {
			sp := tr.begin(name, "", -1)
			_, err := cl.get("/v1/hotpcs?n=10")
			tr.end(sp, 0)
			o.attempted++
			if err != nil {
				o.failed++
			}
		}
	}
	get("server.hotpcs.direct", direct)
	get("cluster.hotpcs", noWitness)

	us := func(name string) float64 { return tr.p50(name) / 1e3 }
	o.metrics["cluster.owner_ns"] = tr.perOp("cluster.owner")
	o.metrics["cluster.hop_us"] = us("cluster.post.nowitness") - us("server.post.direct")
	o.metrics["cluster.witness_us"] = us("cluster.post.witnesssync") - us("cluster.post.nowitness")
	o.metrics["cluster.fanout_us"] = us("cluster.hotpcs") - us("server.hotpcs.direct")
	return nil
}
