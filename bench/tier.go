package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"profileme/internal/cluster"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/server"
	"profileme/internal/traffic"
)

// The collector's sampling configuration (pmsimd -interval/-window/-width
// defaults); every shard the benchmark offers is built to match.
const (
	tierInterval = 512
	tierWidth    = 4
)

// retryPause and maxAttempts are the load generator's answer to
// backpressure: a transient refusal (429/503/5xx/transport, by the
// runner.SubmitError taxonomy) is retried after 5 ms; an operation not
// acknowledged inside the budget counts as failed.
const (
	retryPause  = 5 * time.Millisecond
	maxAttempts = 400
)

// shardTemplate is one distinct shard payload. Submissions reuse
// templates under fresh shard ids: the body is the JSON envelope
// ingest.EncodeSubmit writes, assembled around the pre-encoded profile.
type shardTemplate struct {
	db       *profile.DB
	profile  []byte // db.Save bytes
	b64      string // their base64, as the envelope carries them
	captured uint64
}

func newTemplate(db *profile.DB) (*shardTemplate, error) {
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return nil, err
	}
	return &shardTemplate{
		db:       db,
		profile:  buf.Bytes(),
		b64:      base64.StdEncoding.EncodeToString(buf.Bytes()),
		captured: db.Samples() + db.Lost(),
	}, nil
}

// body returns the submission body for this template under shard id.
func (t *shardTemplate) body(id string) []byte {
	b := make([]byte, 0, len(t.b64)+len(id)+32)
	b = append(b, `{"shard":`...)
	b = strconv.AppendQuote(b, id)
	b = append(b, `,"profile":"`...)
	b = append(b, t.b64...)
	return append(b, `"}`...)
}

// checkEnvelope asserts body() is byte-identical to ingest.EncodeSubmit,
// so the generator offers exactly what runner.HTTPSink would send.
func (t *shardTemplate) checkEnvelope() error {
	want, err := ingest.EncodeSubmit("check/s000", t.db)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, t.body("check/s000")) {
		return fmt.Errorf("assembled submission body differs from ingest.EncodeSubmit")
	}
	return nil
}

// narrowTemplates simulates perKernel shards of each kernel through
// traffic.Spec.Materialize — the repository's own fleet-member wiring
// (cpu.Pipeline + ProfileMe unit at the tier's interval, hardware-side
// loss recorded for conservation), data layouts and sampling seeds
// derived from the run's seed.
func narrowTemplates(e *env, kernels []string, perKernel, scale int) ([]*shardTemplate, error) {
	sp := traffic.Spec{Version: traffic.SpecVersion, Seed: e.derive("shards", 0), DurationS: 1, Interval: tierInterval}
	for _, k := range kernels {
		sp.Cohorts = append(sp.Cohorts, traffic.Cohort{Name: k, Bench: k, Scale: scale, Shards: perKernel, BaseRate: 1})
	}
	pools, err := sp.Materialize()
	if err != nil {
		return nil, err
	}
	var out []*shardTemplate
	for _, k := range kernels {
		for _, payload := range pools[k] {
			t, err := newTemplate(payload.DB)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, out[0].checkEnvelope()
}

// Synthetic PCs live in one image of widePopulation instructions.
const (
	widePCBase     = 0x1000_0000
	widePopulation = 1 << 16
)

func widePC(rank uint64) uint64 { return widePCBase + 4*((rank*7919)%widePopulation) }

// retiredRecord is one minimal valid retired sample record for pc.
func retiredRecord(pc uint64, lat int64) core.Record {
	r := core.Record{PC: pc, LoadComplete: -1, Events: core.EvRetired}
	for i := range r.StageCycle {
		r.StageCycle[i] = -1
	}
	r.StageCycle[core.StageFetch] = 0
	r.StageCycle[core.StageRetire] = lat
	return r
}

// wideTemplates builds n synthetic shards of pcs distinct PCs each,
// drawn zipf-distributed from the 2^16-PC population: the profile of a
// fleet running many binaries, as DCPI saw.
func wideTemplates(e *env, n, pcs int) ([]*shardTemplate, error) {
	var out []*shardTemplate
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(e.derive("wide-shard", uint64(i)))))
		zipf := rand.NewZipf(rng, 1.1, 8, widePopulation-1)
		db := profile.NewDB(tierInterval, 0, tierWidth)
		seen := make(map[uint64]bool, pcs)
		for draws := 0; len(seen) < pcs && draws < 64*pcs; draws++ {
			pc := widePC(zipf.Uint64())
			seen[pc] = true
			db.Add(core.Sample{First: retiredRecord(pc, int64(5+draws%40))})
		}
		t, err := newTemplate(db)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, out[0].checkEnvelope()
}

// instance is one in-process pmsimd: ingest.Service + server.Handler on
// a real loopback listener, configured as the OPERATIONS.md runbook
// configures the daemon (WAL on, checkpoint every 8, queue 64, sketch
// top-K 512, 60 x 1 s window ring).
type instance struct {
	id   string
	cfg  ingest.Config
	svc  *ingest.Service
	http *http.Server
	url  string
	done chan struct{}
}

func instanceConfig(dir string) ingest.Config {
	return ingest.Config{
		QueueDepth:          64,
		Policy:              ingest.RejectNew,
		Interval:            tierInterval,
		Window:              0,
		Width:               tierWidth,
		CheckpointPath:      filepath.Join(dir, "agg.db"),
		CheckpointEvery:     8,
		BreakerThreshold:    3,
		BreakerCooldown:     5 * time.Second,
		WALDir:              filepath.Join(dir, "wal"),
		SketchTopK:          512,
		SketchWindowBuckets: 60,
		SketchWindowBucket:  time.Second,
	}
}

// startInstance boots an instance in dir the way pmsimd -wal-dir does:
// ingest.Recover owns the start (an existing checkpoint seeds it).
func startInstance(dir, id string) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := instanceConfig(dir)
	svc, _, err := ingest.Recover(cfg)
	if err != nil {
		return nil, err
	}
	svc.Start()
	srv := server.New(server.Config{
		Instance:      id,
		MaxBodyBytes:  8 << 20,
		QueryDeadline: 2 * time.Second,
		MaxQueries:    32,
	}, svc)
	in := &instance{id: id, cfg: cfg, svc: svc}
	in.http, in.url, in.done, err = serve(srv.Handler())
	if err != nil {
		svc.CloseWAL()
		return nil, err
	}
	return in, nil
}

// serve starts handler on a loopback listener.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

func stopServer(hs *http.Server, done chan struct{}) {
	if hs == nil {
		return
	}
	// Every request has completed by now. Shutdown still waits up to 5 s
	// for a connection the peer dialled and never used (StateNew), so
	// give it a moment and then close what is left.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-done
}

// stop shuts the listener and closes the WAL (idempotent enough for the
// harness: close() after a drain has already closed the log).
func (in *instance) stop() {
	stopServer(in.http, in.done)
	in.http = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.svc.Flush(ctx)
	in.svc.CloseWAL()
}

// settle waits (untimed) until the instances' aggregates account for
// everything acknowledged so far — every admitted shard merged, every
// refusal's loss reversed — so one round's backlog never bleeds into the
// next round's clock. It reads the lock-free published view only:
// Service.Stats() races with a running merge (SafeDB.publishes is written
// under the aggregate lock and read with an atomic load), so the harness
// calls Stats only once settle says the merge loop is idle.
func settle(ins []*instance, off *offered, seedCaptured uint64) {
	_, want := off.totals()
	want += seedCaptured
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var got uint64
		for _, in := range ins {
			c := in.svc.Aggregate().CountersSnapshot()
			got += c.Samples + c.Lost
		}
		if got == want {
			return
		}
	}
}

// tier is a router in front of instances, as pmrouter -witness runs it,
// including the 2 s readiness probe loop.
type tier struct {
	instances []*instance
	router    *cluster.Router
	http      *http.Server
	url       string
	done      chan struct{}
	stopProbe context.CancelFunc
	probeDone chan struct{}
}

func routerConfig(ins []*instance) cluster.RouterConfig {
	cfg := cluster.RouterConfig{
		VNodes:           cluster.DefaultVNodes,
		QueryDeadline:    2 * time.Second,
		HedgeDelay:       250 * time.Millisecond,
		FailureThreshold: 3,
		MaxBodyBytes:     8 << 20,
		Witness:          true,
	}
	for _, in := range ins {
		cfg.Instances = append(cfg.Instances, cluster.Instance{ID: in.id, BaseURL: in.url})
	}
	return cfg
}

func startTier(dir string, n int) (*tier, error) {
	t := &tier{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%d", i)
		in, err := startInstance(filepath.Join(dir, id), id)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.instances = append(t.instances, in)
	}
	rt, err := cluster.NewRouter(routerConfig(t.instances))
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = rt
	if t.http, t.url, t.done, err = serve(rt.Handler()); err != nil {
		t.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.stopProbe, t.probeDone = cancel, make(chan struct{})
	go func() {
		defer close(t.probeDone)
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		rt.Probe(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				rt.Probe(ctx)
			}
		}
	}()
	return t, nil
}

func (t *tier) stop() {
	if t.stopProbe != nil {
		t.stopProbe()
		<-t.probeDone
		t.stopProbe = nil
	}
	stopServer(t.http, t.done)
	t.http = nil
	if t.router != nil {
		t.router.WitnessFlush()
	}
	for _, in := range t.instances {
		in.stop()
	}
}

// client is the load generator's HTTP side: keep-alive connections to
// one base URL, one per worker.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// submit posts body until it is acknowledged (202) or the attempt
// budget is spent. It reports the attempts made; each attempt is a
// child span of parent.
func (c *client) submit(tr *tracer, parent int, id string, body []byte) (attempts int, err error) {
	for attempts = 1; ; attempts++ {
		sp := tr.begin("client.post", id, parent)
		status, perr := c.post("/v1/submit", body)
		tr.end(sp, 0)
		if perr == nil && status == http.StatusAccepted {
			return attempts, nil
		}
		se := &runner.SubmitError{Status: status}
		if perr != nil {
			se.Status, se.Msg = 0, perr.Error()
		}
		if !se.Transient() || attempts >= maxAttempts {
			return attempts, se
		}
		time.Sleep(retryPause)
	}
}

func (c *client) post(path string, body []byte) (int, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// get fetches path and returns the body of a 200.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// offered is the generator's own record of what it sent: the oracle
// side of the conservation and top-10 checks. Recording is a map insert,
// so the generator's bookkeeping stays out of the timed path and out of
// the heap the run reports; the oracle aggregate is built on demand.
type offered struct {
	mu     sync.Mutex
	shards map[string]*shardTemplate // distinct shard id -> what was sent
}

func newOffered() *offered { return &offered{shards: map[string]*shardTemplate{}} }

// record notes one acknowledged submission; a resubmitted id counts once.
func (o *offered) record(id string, t *shardTemplate) {
	o.mu.Lock()
	o.shards[id] = t
	o.mu.Unlock()
}

func (o *offered) totals() (distinct int, captured uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range o.shards {
		captured += t.captured
	}
	return len(o.shards), captured
}

// oracle merges seed (may be nil) and every distinct shard offered into a
// fresh in-process aggregate.
func (o *offered) oracle(seed *profile.DB) (*profile.DB, error) {
	agg := profile.NewDB(tierInterval, 0, tierWidth)
	if seed != nil {
		if err := agg.Merge(seed); err != nil {
			return nil, err
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range o.shards {
		if err := agg.Merge(t.db); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// checkConservation is the tier-wide sample-conservation oracle: after
// Flush, Σ instances (Samples+Lost) equals Σ captured over the distinct
// shards offered (plus whatever the aggregate was seeded with), and
// every distinct shard merged exactly once.
func checkConservation(o *outcome, ins []*instance, off *offered, seedCaptured uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got, merged uint64
	for _, in := range ins {
		if err := in.svc.Flush(ctx); err != nil {
			o.check(false, "%s: flush: %v", in.id, err)
			return
		}
		st := in.svc.Stats()
		got += st.Samples + st.Lost
		merged += st.Merged
	}
	distinct, captured := off.totals()
	o.check(got == captured+seedCaptured, "conservation: instances hold %d samples+lost, offered %d", got, captured+seedCaptured)
	o.check(merged == uint64(distinct), "merged %d shards, offered %d distinct", merged, distinct)
}

// checkRecover is the durability oracle: ingest.Recover on the run's
// own checkpoint + WAL reproduces the live aggregate's Save bytes. It
// times the final checkpoint and the recovery as layer spans.
func checkRecover(o *outcome, tr *tracer, in *instance) {
	sp := tr.begin("ingest.checkpoint", in.id, -1)
	err := in.svc.FinalCheckpoint()
	tr.end(sp, 0)
	if err != nil {
		o.check(false, "%s: final checkpoint: %v", in.id, err)
		return
	}
	var live bytes.Buffer
	if err := in.svc.Aggregate().Save(&live); err != nil {
		o.check(false, "%s: save: %v", in.id, err)
		return
	}
	if err := in.svc.CloseWAL(); err != nil {
		o.check(false, "%s: close wal: %v", in.id, err)
		return
	}
	sp = tr.begin("ingest.recover", in.id, -1)
	rec, _, err := ingest.Recover(in.cfg)
	tr.end(sp, 0)
	if err != nil {
		o.check(false, "%s: recover: %v", in.id, err)
		return
	}
	defer rec.CloseWAL()
	var again bytes.Buffer
	if err := rec.Aggregate().Save(&again); err != nil {
		o.check(false, "%s: save recovered: %v", in.id, err)
		return
	}
	o.check(bytes.Equal(live.Bytes(), again.Bytes()), "%s: recovered aggregate differs from the live one (%d vs %d bytes)", in.id, again.Len(), live.Len())
}

// checkTop10 compares a served /v1/hotpcs answer with the exact top 10
// of an in-process merge of seed and everything offered. The answer is
// sketch-served, so it is held to its own advertised bound: at least 9 of
// the served PCs must have an exact count within error_bound of the
// oracle's tenth-highest count (or above it).
func checkTop10(o *outcome, what string, body []byte, off *offered, seed *profile.DB) {
	oracle, err := off.oracle(seed)
	if err != nil {
		o.check(false, "%s: oracle merge: %v", what, err)
		return
	}
	var resp struct {
		PCs []struct {
			PC string `json:"pc"`
		} `json:"pcs"`
		ErrorBound uint64 `json:"error_bound"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		o.check(false, "%s: top-10 answer: %v", what, err)
		return
	}
	exact := oracle.HotPCs(10)
	if len(exact) == 0 {
		o.check(false, "%s: oracle aggregate is empty", what)
		return
	}
	tenth := exact[len(exact)-1].Samples
	hits := 0
	for _, row := range resp.PCs {
		pc, err := strconv.ParseUint(row.PC, 0, 64)
		if err != nil {
			continue
		}
		if a := oracle.Get(pc); a != nil && a.Samples+resp.ErrorBound >= tenth {
			hits++
		}
	}
	want := 9
	if len(exact) < 10 {
		want = len(exact) - 1
	}
	o.check(hits >= want, "%s: %d of the served top-10 are within the advertised bound (%d) of the exact tenth count %d, want >= %d",
		what, hits, resp.ErrorBound, tenth, want)
}

// latencySummary prints the latency distribution of the workload's
// operation in the untraced report: each percentile is taken per round of
// fixed work (or per window of an open loop) and the median over rounds is
// shown, so one stall moves one round, not the run.
func latencySummary(o *outcome, rounds [][]float64) {
	var p50, p90, p99 []float64
	samples := 0
	for _, ms := range rounds {
		if len(ms) == 0 {
			continue
		}
		samples += len(ms)
		p50 = append(p50, quantile(ms, 0.50))
		p90 = append(p90, quantile(ms, 0.90))
		p99 = append(p99, quantile(ms, 0.99))
	}
	o.detail["op_p50_ms"] = median(p50)
	o.detail["op_p90_ms"] = median(p90)
	o.detail["op_p99_ms"] = median(p99)
	o.detail["op_samples"] = float64(samples)
}

// opLatency writes the traced pass's pooled latency percentiles.
func opLatency(o *outcome, ms []float64) {
	o.metrics["bench.op_p50_ms"] = quantile(ms, 0.50)
	o.metrics["bench.op_p90_ms"] = quantile(ms, 0.90)
	o.metrics["bench.op_p99_ms"] = quantile(ms, 0.99)
}
