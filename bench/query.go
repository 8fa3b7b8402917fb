package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"profileme/internal/core"
	"profileme/internal/profile"
)

// queryKind indexes the four query shapes of the mix.
type queryKind int

const (
	qHot queryKind = iota
	qWindow
	qEstimate
	qExact
	numQueryKinds
)

var queryKindName = [numQueryKinds]string{"hot", "window", "estimate", "exact"}

// queryCycle is the fixed 20-query cycle worker A repeats: 14 sketch
// hot-PC, 4 windowed, 1 estimate, 1 exact — the read mix of a dashboard
// that mostly polls and occasionally drills down.
var queryCycle = [20]queryKind{
	qHot, qHot, qHot, qWindow, qHot, qHot, qHot, qEstimate, qHot, qWindow,
	qHot, qHot, qHot, qWindow, qHot, qHot, qExact, qHot, qWindow, qHot,
}

// submitEvery paces worker B: wide shards at 4/s, so views republish and
// a checkpoint (one every 8 merges, ~7 MB on this aggregate) runs every
// two seconds beside the reads, without the writer saturating a core.
const submitEvery = 250 * time.Millisecond

// queryCliff PCs carry cliffWeight samples each — far above the sketch
// floor and above anything the writer's zipf head accumulates during a
// run — so the true top 10 is unambiguous under the sketch's bound.
const (
	queryCliff  = 10
	cliffWeight = 20000
)

// queryRunner is the query_mix harness: one instance restarted onto a
// 2^16-PC checkpoint, a closed-loop reader and a paced writer.
type queryRunner struct {
	population   int
	seedCaptured uint64
	templates    []*shardTemplate
	inst         *instance
	cl           *client
	off          *offered
	roundS       float64 // seconds per round: rounds are slices of time here
	paths        [numQueryKinds]string
}

func setupQueryMix(e *env) (harness, error) {
	pop, wide, pcs, roundS := widePopulation, 8, 2048, 2.0
	if e.smoke {
		pop, wide, pcs, roundS = 1<<11, 2, 128, 0.05
	}
	seed := standingAggregate(pop)
	ts, err := wideTemplates(e, wide, pcs)
	if err != nil {
		return nil, err
	}
	// Boot the instance the way a restarted pmsimd finds its state: the
	// aggregate is a checkpoint on disk and ingest.Recover loads it.
	dir := filepath.Join(e.dir, "c0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := profile.SaveFile(seed, instanceConfig(dir).CheckpointPath); err != nil {
		return nil, err
	}
	inst, err := startInstance(dir, "c0")
	if err != nil {
		return nil, err
	}
	r := &queryRunner{
		population: pop, seedCaptured: seed.Samples() + seed.Lost(), templates: ts,
		inst: inst, cl: newClient(inst.url, genWorkers), off: newOffered(), roundS: roundS,
	}
	r.paths = [numQueryKinds]string{
		qHot:      "/v1/hotpcs?n=10",
		qWindow:   "/v1/hotpcs?n=10&window=30s",
		qEstimate: fmt.Sprintf("/v1/estimate?pc=%#x", cliffPC(0)),
		qExact:    "/v1/hotpcs?n=10&sketch=false",
	}
	if _, err := r.cl.get("/healthz"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// standingAggregate is the profile the instance starts on: every PC of
// the population sampled once, a warm zipf-ish tail, and the cliff. It is
// a pure function of pop, so the top-10 oracle rebuilds it instead of the
// harness holding a second 2^16-PC aggregate in the measured heap.
func standingAggregate(pop int) *profile.DB {
	seed := profile.NewDB(tierInterval, 0, tierWidth)
	for i := 0; i < pop; i++ {
		seed.Add(core.Sample{First: retiredRecord(widePC(uint64(i)), int64(5+i%40))})
	}
	for rank := 0; rank < 512; rank++ {
		for j := 0; j < 1024/(rank+1)+1; j++ {
			seed.Add(core.Sample{First: retiredRecord(widePC(uint64(rank*31+7)), int64(5+j%40))})
		}
	}
	for c := 0; c < queryCliff; c++ {
		for j := 0; j < cliffWeight; j++ {
			seed.Add(core.Sample{First: retiredRecord(cliffPC(c), int64(5+j%40))})
		}
	}
	return seed
}

func cliffPC(c int) uint64 { return widePC(uint64(1000 + 97*c)) }

func (r *queryRunner) close() {
	r.cl.closeIdle()
	r.inst.stop()
}

// mixResult is what one pass of the reader (with the writer beside it)
// measured.
type mixResult struct {
	byKind        [numQueryKinds][]float64
	rounds        [][]float64 // per round: every query's latency
	ackMS         []float64
	perRound      []float64 // queries per second, per round
	failed, acked int64
}

func (m *mixResult) queries() (n int64) {
	for _, r := range m.rounds {
		n += int64(len(r))
	}
	return n
}

// runMix runs the reader for budget seconds (at least minRounds rounds)
// with the paced writer beside it. Everything that changes during a run
// changes with time — the writer is paced, and the 30 s window ring the
// windowed query merges fills bucket by bucket — so a round is a slice of
// roundS seconds of whole cycles, not a fixed number of queries: every run
// then sees the same ring state in its n-th round, however fast it is.
func (r *queryRunner) runMix(tr *tracer, tag string, budget float64, minRounds int) mixResult {
	var res mixResult
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // worker B: paced wide-shard submits
		defer wg.Done()
		ticker := time.NewTicker(submitEvery)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			op := submitOp{id: fmt.Sprintf("query/%s/s%05d", tag, i), tmpl: r.templates[i%len(r.templates)]}
			body := op.tmpl.body(op.id)
			sp := tr.begin("client.submit", op.id, -1)
			start := time.Now()
			_, err := r.cl.submit(tr, sp, op.id, body)
			ms := time.Since(start).Seconds() * 1e3
			tr.end(sp, 0)
			if err != nil {
				res.failed++
				continue
			}
			r.off.record(op.id, op.tmpl)
			res.ackMS = append(res.ackMS, ms)
			res.acked++
		}
	}()

	for _, kind := range queryCycle { // one untimed cycle: connections, caches
		r.cl.get(r.paths[kind])
	}
	var readerFailed int64
	rounds := int(budget / r.roundS)
	if rounds < minRounds {
		rounds = minRounds
	}
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		var lat []float64
		for time.Since(t0).Seconds() < r.roundS {
			for _, kind := range queryCycle {
				sp := tr.begin("client."+queryKindName[kind], "", -1)
				q0 := time.Now()
				_, err := r.cl.get(r.paths[kind])
				ms := time.Since(q0).Seconds() * 1e3
				tr.end(sp, 0)
				if err != nil {
					readerFailed++
					continue
				}
				res.byKind[kind] = append(res.byKind[kind], ms)
				lat = append(lat, ms)
			}
		}
		dt := time.Since(t0).Seconds()
		res.perRound = append(res.perRound, float64(len(lat))/dt)
		res.rounds = append(res.rounds, lat)
	}
	close(stop)
	wg.Wait()
	res.failed += readerFailed
	settle([]*instance{r.inst}, r.off, r.seedCaptured)
	return res
}

// oracles runs the output checks and samples the live heap once the
// instance is flushed: the merge loop has exited, so no merge, view
// publication or checkpoint buffer is in flight. The writer is paced by
// time, so the work done by then is fixed by the budget.
func (r *queryRunner) oracles(o *outcome, tr *tracer) {
	if body, err := r.cl.get(r.paths[qHot]); err != nil {
		o.check(false, "instance hotpcs: %v", err)
	} else {
		checkTop10(o, "instance", body, r.off, standingAggregate(r.population))
	}
	checkConservation(o, []*instance{r.inst}, r.off, r.seedCaptured)
	o.metrics["live_heap_mb"] = liveHeapMB()
	checkRecover(o, tr, r.inst)
}

// measure: one operation is one answered query of the mix, so op_p50 sits
// in the sketch-served queries, op_p90 in the windowed ones and op_p99 in
// the exact one (README: the latency budget table).
func (r *queryRunner) measure(e *env) (*outcome, error) {
	o := newOutcome()
	res := r.runMix(nil, "run", e.seconds, heapAfterRounds)
	o.attempted = res.queries() + res.acked + res.failed
	o.failed = res.failed
	throughputSummary(o, res.perRound)
	latencySummary(o, res.rounds)
	for k := queryKind(0); k < numQueryKinds; k++ {
		o.detail[queryKindName[k]+"_p50_ms"] = quantile(res.byKind[k], 0.50)
	}
	o.detail["ack_p50_ms"] = quantile(res.ackMS, 0.50)
	r.oracles(o, nil)
	return o, nil
}

// layers is the traced run: the mix untraced then traced, then the same
// four reads as direct calls on the live aggregate.
func (r *queryRunner) layers(e *env) (*outcome, error) {
	o := newOutcome()
	tr := e.tr
	plain := r.runMix(nil, "plain", e.seconds/4, 1)
	traced := r.runMix(tr, "traced", e.seconds/4, 1)
	o.attempted = plain.queries() + traced.queries() + plain.acked + traced.acked + plain.failed + traced.failed
	o.failed = plain.failed + traced.failed
	o.metrics["bench.hot_p50_ms"] = quantile(traced.byKind[qHot], 0.50)
	o.metrics["bench.hot_p99_ms"] = quantile(traced.byKind[qHot], 0.99)
	o.metrics["bench.window_p50_ms"] = quantile(traced.byKind[qWindow], 0.50)
	o.metrics["bench.exact_p50_ms"] = quantile(traced.byKind[qExact], 0.50)
	o.metrics["bench.ack_p50_ms"] = quantile(traced.ackMS, 0.50)
	o.metrics["bench.ack_p99_ms"] = quantile(traced.ackMS, 0.99)
	var all []float64
	for _, round := range traced.rounds {
		all = append(all, round...)
	}
	opLatency(o, all)
	if p := median(plain.perRound); p > 0 {
		o.metrics["bench.trace_overhead_pct"] = 100 * (p - median(traced.perRound)) / p
	}

	agg := r.inst.svc.Aggregate()
	n := 2000
	if e.smoke {
		n = 50
	}
	probe := func(name string, iters int, f func()) {
		for i := 0; i < iters; i++ {
			sp := tr.begin(name, "", -1)
			f()
			tr.end(sp, 0)
		}
	}
	probe("profile.hot", n, func() { agg.HotPCs(10) })
	probe("profile.window", n/10, func() { agg.WindowHotPCs(30*time.Second, 10) })
	probe("profile.estimate", n, func() { agg.EstimatedCount(cliffPC(0)) })
	probe("profile.exact", n/100+3, func() { agg.HotPCsExact(10) })
	probe("server.healthz", n/4, func() { r.cl.get("/healthz") })
	o.metrics["profile.hot_us"] = tr.p50("profile.hot") / 1e3
	o.metrics["profile.window_us"] = tr.p50("profile.window") / 1e3
	o.metrics["profile.estimate_us"] = tr.p50("profile.estimate") / 1e3
	o.metrics["profile.exact_ms"] = tr.p50("profile.exact") / 1e6
	o.metrics["server.rtt_us"] = tr.p50("server.healthz") / 1e3
	o.metrics["server.query_self_us"] = (tr.p50("client.hot") - tr.p50("profile.hot") - tr.p50("server.healthz")) / 1e3
	o.metrics["profile.view_publishes"] = float64(r.inst.svc.Stats().Sketch.Publishes)

	r.oracles(o, tr)
	o.metrics["ingest.checkpoint_ms"] = tr.p50("ingest.checkpoint") / 1e6
	o.metrics["ingest.recover_ms"] = tr.p50("ingest.recover") / 1e6
	o.metrics["bench.failed_share"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}
