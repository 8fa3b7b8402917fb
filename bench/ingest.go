package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/stats"
	"profileme/internal/wal"
	"profileme/internal/workload"
)

// genWorkers is the load generator's concurrency: one process with two
// goroutines, one connection each (nproc = 2 on the reference container).
const genWorkers = 2

// ingestRunner is the closed-loop submit harness of ingest_narrow and
// ingest_wide: one runbook-configured instance, two connections.
type ingestRunner struct {
	name      string
	dir       string
	templates []*shardTemplate
	inst      *instance
	cl        *client
	off       *offered
	perRound  int     // submissions per round of fixed work
	dupShare  float64 // share resubmitting an id already sent this round
	ladderN   int     // inputs pushed through each ladder rung
}

func setupIngestNarrow(e *env) (harness, error) {
	// Real simulator shards: every suite kernel x two data layouts.
	perKernel, scale, perRound, ladderN := 2, 25_000, 1000, 400
	if e.smoke {
		perKernel, scale, perRound, ladderN = 1, 4_000, 60, 12
	}
	ts, err := narrowTemplates(e, workload.Names(), perKernel, scale)
	if err != nil {
		return nil, err
	}
	return newIngestRunner(e, "narrow", ts, perRound, 0.10, ladderN)
}

func setupIngestWide(e *env) (harness, error) {
	n, pcs, perRound, ladderN := 24, 2048, 150, 100
	if e.smoke {
		n, pcs, perRound, ladderN = 4, 256, 24, 8
	}
	ts, err := wideTemplates(e, n, pcs)
	if err != nil {
		return nil, err
	}
	return newIngestRunner(e, "wide", ts, perRound, 0, ladderN)
}

func newIngestRunner(e *env, name string, ts []*shardTemplate, perRound int, dupShare float64, ladderN int) (harness, error) {
	inst, err := startInstance(filepath.Join(e.dir, "c0"), "c0")
	if err != nil {
		return nil, err
	}
	r := &ingestRunner{
		name: name, dir: e.dir, templates: ts, inst: inst,
		cl: newClient(inst.url, genWorkers), off: newOffered(),
		perRound: perRound, dupShare: dupShare, ladderN: ladderN,
	}
	if _, err := r.cl.get("/healthz"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *ingestRunner) settle() { settle([]*instance{r.inst}, r.off, 0) }

func (r *ingestRunner) close() {
	r.cl.closeIdle()
	r.inst.stop()
}

// submitOp is one planned submission.
type submitOp struct {
	id   string
	tmpl *shardTemplate
}

// plan lays out one round: fresh shard ids, templates drawn from the
// pool, and dupShare of the positions resubmitting an earlier id of the
// same round — all from the run's seed.
func (r *ingestRunner) plan(e *env, round string, n int) []submitOp {
	rng := stats.NewRNG(e.derive("plan/"+r.name+"/"+round, 0))
	ops := make([]submitOp, n)
	for i := range ops {
		if i > 0 && rng.Float64() < r.dupShare {
			ops[i] = ops[rng.Intn(i)]
			continue
		}
		ops[i] = submitOp{
			id:   fmt.Sprintf("%s/%s/s%05d", r.name, round, i),
			tmpl: r.templates[rng.Intn(len(r.templates))],
		}
	}
	return ops
}

// roundResult is what one closed-loop round measured.
type roundResult struct {
	acked, failed int64
	seconds       float64
	latMS         []float64
}

// runRound pushes ops through genWorkers closed-loop workers against cl.
func runRound(tr *tracer, cl *client, off *offered, ops []submitOp) roundResult {
	ms := make([]float64, len(ops)) // each index is written by one worker
	acked := make([]bool, len(ops))
	t0 := time.Now()
	eachWorker(len(ops), func(i int) {
		op := ops[i]
		body := op.tmpl.body(op.id)
		sp := tr.begin("client.submit", op.id, -1)
		start := time.Now()
		_, err := cl.submit(tr, sp, op.id, body)
		ms[i] = time.Since(start).Seconds() * 1e3
		tr.end(sp, 0)
		if err == nil {
			off.record(op.id, op.tmpl)
			acked[i] = true
		}
	})
	res := roundResult{seconds: time.Since(t0).Seconds()}
	for i, ok := range acked {
		if ok {
			res.latMS = append(res.latMS, ms[i])
		}
	}
	res.acked = int64(len(res.latMS))
	res.failed = int64(len(ops)) - res.acked
	return res
}

// warm is a short untimed round: connections open, the heap and the WAL
// segment reach their working size before anything is timed.
func (r *ingestRunner) warm(e *env, o *outcome) {
	rr := runRound(nil, r.cl, r.off, r.plan(e, "warm", r.perRound/5+1))
	r.settle()
	o.attempted += rr.acked + rr.failed
	o.failed += rr.failed
}

// measure runs rounds of perRound submissions until the budget is spent.
// One operation is one acknowledged (durable) submission.
func (r *ingestRunner) measure(e *env) (*outcome, error) {
	o := newOutcome()
	r.warm(e, o)
	var perRound []float64
	var lat [][]float64
	start := time.Now()
	for round := 0; ; round++ {
		rr := runRound(nil, r.cl, r.off, r.plan(e, fmt.Sprintf("r%02d", round), r.perRound))
		r.settle()
		o.attempted += rr.acked + rr.failed
		o.failed += rr.failed
		perRound = append(perRound, float64(rr.acked)/rr.seconds)
		lat = append(lat, rr.latMS)
		if round+1 == heapAfterRounds {
			o.metrics["live_heap_mb"] = liveHeapMB()
		}
		if !moreRounds(round+1, time.Since(start).Seconds(), rr.seconds, e.seconds) {
			break
		}
	}
	throughputSummary(o, perRound)
	latencySummary(o, lat)
	checkConservation(o, []*instance{r.inst}, r.off, 0)
	checkRecover(o, nil, r.inst)
	return o, nil
}

// layers is the traced run: a traced end-to-end pass, the submit ladder
// (the same inputs through increasingly inclusive public calls), the
// merge probes, and the checkpoint/recover pair.
func (r *ingestRunner) layers(e *env) (*outcome, error) {
	o := newOutcome()
	tr := e.tr
	n := r.perRound / 2
	r.warm(e, o)

	// End to end, untraced then traced.
	var before, after runtime.MemStats
	plain := runRound(nil, r.cl, r.off, r.plan(e, "plain", n))
	r.settle()
	runtime.ReadMemStats(&before)
	traced := runRound(tr, r.cl, r.off, r.plan(e, "traced", n))
	runtime.ReadMemStats(&after)
	r.settle()
	o.attempted += plain.acked + plain.failed + traced.acked + traced.failed
	o.failed += plain.failed + traced.failed
	o.metrics["bench.ack_p50_ms"] = quantile(traced.latMS, 0.50)
	o.metrics["bench.ack_p99_ms"] = quantile(traced.latMS, 0.99)
	opLatency(o, traced.latMS)
	o.metrics["bench.trace_overhead_pct"] = 100 * (traced.seconds - plain.seconds) / plain.seconds
	acked := float64(plain.acked + traced.acked)
	if traced.acked > 0 {
		o.metrics["ingest.alloc_kb_per_submit"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e3 / float64(traced.acked)
	}
	st := r.inst.svc.Stats()
	if h := st.WAL; h != nil && h.Syncs > 0 && acked > 0 {
		o.metrics["wal.appends_per_sync"] = float64(h.Appends) / float64(h.Syncs)
		o.metrics["wal.bytes_per_submit"] = float64(h.AppendedBytes) / acked
	}
	if acked > 0 {
		o.metrics["ingest.refusals_per_submit"] = float64(st.OverloadRejected) / acked
	}
	o.metrics["ingest.duplicates"] = float64(st.Duplicates)

	if err := r.ladder(e, o); err != nil {
		return nil, err
	}
	if err := r.mergeProbes(e, o); err != nil {
		return nil, err
	}

	o.metrics["profile.view_publishes"] = float64(r.inst.svc.Stats().Sketch.Publishes)
	checkConservation(o, []*instance{r.inst}, r.off, 0)
	checkRecover(o, tr, r.inst)
	o.metrics["ingest.checkpoint_ms"] = tr.p50("ingest.checkpoint") / 1e6
	o.metrics["ingest.recover_ms"] = tr.p50("ingest.recover") / 1e6
	o.metrics["bench.failed_share"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// ladder pushes the same ladderN inputs through each rung; a layer's
// share is a rung's median minus the rungs it contains (README: where
// the subtraction is blind).
func (r *ingestRunner) ladder(e *env, o *outcome) error {
	tr := e.tr
	ops := r.plan(e, "ladder", r.ladderN)
	for i := range ops { // the ladder wants distinct ids throughout
		ops[i].id = fmt.Sprintf("%s/ladder/s%05d", r.name, i)
	}

	// The three codec rungs run interleaved per input, so they see the
	// same cache and heap state.
	for _, op := range ops {
		sp := tr.begin("ingest.encode", op.id, -1)
		body, err := ingest.EncodeSubmit(op.id, op.tmpl.db)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		sp = tr.begin("profile.load", op.id, -1)
		_, err = profile.LoadDB(bytes.NewReader(op.tmpl.profile))
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		sp = tr.begin("ingest.decode", op.id, -1)
		_, err = ingest.DecodeSubmit(body)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
	}
	decode := func(prefix string) ([]ingest.Submission, error) {
		subs := make([]ingest.Submission, len(ops))
		for i, op := range ops {
			sub, err := ingest.DecodeSubmit(op.tmpl.body(prefix + op.id))
			if err != nil {
				return nil, err
			}
			subs[i] = sub
		}
		return subs, nil
	}

	// Service.Submit without a WAL: admission ledger + queue offer. Each
	// submit waits (untimed) for the previous merge to finish, so the rung
	// sees neither backpressure nor the merge loop holding the service lock.
	subs, err := decode("nowal/")
	if err != nil {
		return err
	}
	cfg := instanceConfig(filepath.Join(r.dir, "ladder-nowal"))
	cfg.WALDir, cfg.CheckpointPath = "", ""
	bare, err := ingest.NewService(cfg, nil)
	if err != nil {
		return err
	}
	bare.Start()
	var merged uint64
	for i, sub := range subs {
		sp := tr.begin("ingest.submit.nowal", ops[i].id, -1)
		err := bare.Submit(sub)
		tr.end(sp, 0)
		if err != nil {
			return fmt.Errorf("ladder: submit without WAL: %w", err)
		}
		merged += sub.Captured()
		for c := bare.Aggregate().CountersSnapshot(); c.Samples+c.Lost < merged; c = bare.Aggregate().CountersSnapshot() {
			runtime.Gosched()
		}
	}
	if err := bare.Flush(context.Background()); err != nil {
		return err
	}

	// wal.Log alone: Stage then Ticket.Wait from two appenders, with
	// payloads the size of the shard's profile bytes.
	log, _, err := wal.Open(wal.Config{Dir: filepath.Join(r.dir, "ladder-wal")}, nil)
	if err != nil {
		return err
	}
	var walErr atomic.Value
	eachWorker(len(ops), func(i int) {
		sp := tr.begin("wal.stage", ops[i].id, -1)
		_, ticket, err := log.Stage(ops[i].tmpl.profile)
		tr.end(sp, 0)
		if err == nil {
			sp = tr.begin("wal.wait", ops[i].id, -1)
			err = ticket.Wait()
			tr.end(sp, 0)
		}
		if err != nil {
			walErr.Store(err)
		}
	})
	if err := log.Close(); err != nil {
		return err
	}
	if err, _ := walErr.Load().(error); err != nil {
		return fmt.Errorf("ladder: wal: %w", err)
	}

	// Service.Submit with the WAL, two submitters.
	if subs, err = decode("wal/"); err != nil {
		return err
	}
	durable, _, err := ingest.Recover(instanceConfig(filepath.Join(r.dir, "ladder-svc")))
	if err != nil {
		return err
	}
	durable.Start()
	var subErr atomic.Value
	eachWorker(len(ops), func(i int) {
		for {
			sp := tr.begin("ingest.submit.wal", ops[i].id, -1)
			err := durable.Submit(subs[i])
			tr.end(sp, 0)
			if errors.Is(err, ingest.ErrQueueFull) {
				time.Sleep(retryPause)
				continue
			}
			if err != nil {
				subErr.Store(err)
			}
			return
		}
	})
	if err := durable.Flush(context.Background()); err != nil {
		return err
	}
	if err := durable.CloseWAL(); err != nil {
		return err
	}
	if err, _ := subErr.Load().(error); err != nil {
		return fmt.Errorf("ladder: submit with WAL: %w", err)
	}

	// The HTTP floor, then the whole POST, against the live instance.
	var postFailed atomic.Int64
	eachWorker(len(ops), func(i int) {
		sp := tr.begin("server.healthz", ops[i].id, -1)
		_, err := r.cl.get("/healthz")
		tr.end(sp, 0)
		if err != nil {
			postFailed.Add(1)
		}
	})
	eachWorker(len(ops), func(i int) {
		body := ops[i].tmpl.body(ops[i].id)
		sp := tr.begin("server.post", ops[i].id, -1)
		_, err := r.cl.submit(nil, -1, ops[i].id, body)
		tr.end(sp, 0)
		if err != nil {
			postFailed.Add(1)
			return
		}
		r.off.record(ops[i].id, ops[i].tmpl)
	})
	r.settle()
	o.attempted += 2 * int64(len(ops))
	o.failed += postFailed.Load()

	us := func(name string) float64 { return tr.p50(name) / 1e3 }
	o.metrics["ingest.encode_us"] = us("ingest.encode")
	o.metrics["profile.load_us"] = us("profile.load")
	o.metrics["ingest.envelope_us"] = us("ingest.decode") - us("profile.load")
	o.metrics["ingest.admit_us"] = us("ingest.submit.nowal")
	o.metrics["wal.stage_us"] = us("wal.stage")
	o.metrics["wal.sync_wait_us"] = us("wal.wait")
	o.metrics["ingest.submit_us"] = us("ingest.submit.wal")
	o.metrics["server.rtt_us"] = us("server.healthz")
	o.metrics["server.submit_self_us"] = us("server.post") - us("ingest.decode") - us("ingest.submit.wal") - us("server.healthz")
	return nil
}

// eachWorker runs f(0..n-1) across genWorkers goroutines.
func eachWorker(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// mergeProbes times DB.Merge and SafeDB.Merge on scratch aggregates fed
// the same shard sequence; the difference is the sketch update and view
// publication SafeDB adds.
func (r *ingestRunner) mergeProbes(e *env, o *outcome) error {
	tr := e.tr
	ops := r.plan(e, "merge", r.ladderN)
	plainAgg := profile.NewDB(tierInterval, 0, tierWidth)
	safeAgg := profile.NewSafeDBWith(profile.NewDB(tierInterval, 0, tierWidth), profile.SketchConfig{
		TopK: 512, WindowBuckets: 60, BucketDur: time.Second,
	})
	for _, op := range ops {
		sp := tr.begin("profile.dbmerge", op.id, -1)
		err := plainAgg.Merge(op.tmpl.db)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
	}
	for _, op := range ops {
		sp := tr.begin("profile.safemerge", op.id, -1)
		err := safeAgg.Merge(op.tmpl.db)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
	}
	o.metrics["profile.dbmerge_us"] = tr.p50("profile.dbmerge") / 1e3
	o.metrics["profile.publish_us"] = (tr.p50("profile.safemerge") - tr.p50("profile.dbmerge")) / 1e3
	return nil
}
