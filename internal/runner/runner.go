// Package runner is the campaign supervisor: it executes a queue of
// profiling jobs (benchmark × config × seed shards) across a bounded
// worker pool and merges the per-shard profile databases into one
// loss-corrected aggregate — the multi-run aggregation workflow
// hardware-counter PGO systems build on.
//
// PR 1 made a *single* run degrade gracefully under hardware faults; this
// package extends the same contract to software failures at fleet scale:
//
//   - Panic isolation: a worker panic is recovered, converted to a
//     panicError with the captured stack, and dead-letters only that job;
//     the fleet keeps going.
//   - Real cancellation: each attempt runs under a context with the
//     configured wall-clock deadline, plumbed into
//     cpu.Pipeline.RunContext, so a wedged or slow job is cut off with a
//     typed cpu.ErrCanceled instead of stalling a worker forever.
//   - Retry with exponential backoff + deterministic jitter and seed
//     perturbation for transient failures (livelock, deadline, cycle
//     budget); a bounded attempt budget dead-letters the incurable.
//   - Crash-safe checkpointing: the checkpoint directory is a journal
//     (internal/wal) with one record per job outcome — the job's status,
//     attempts and seed, and a completed job's shard image — appended and
//     fsynced before the next result is taken; Resume replays the intact
//     prefix and re-enqueues only jobs without a record, so kill -9 loses
//     no merged job and damage only ever costs re-running what it hit.
//   - Graceful drain: cancel the Run context (pmsim wires SIGINT/SIGTERM
//     to it) and in-flight jobs get a grace period, then hard
//     cancellation, each interrupted job's attempt count is journaled,
//     and a degradation report says what is left.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/stats"
	"profileme/internal/wal"
)

// executeFunc runs one attempt of one job. The default is
// (*Fleet).simulate; tests substitute failure scripts to exercise the
// supervision machinery without a simulator in the loop.
type executeFunc func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error)

// Config parameterizes a Fleet. The zero value of every field gets a
// usable default from normalize, except Workers ≥ 1 which callers
// typically set explicitly.
type Config struct {
	// Workers is the worker-pool bound (default 1).
	Workers int
	// Deadline bounds each attempt's wall-clock time (0 = none); it is
	// enforced as real cancellation inside the pipeline.
	Deadline time.Duration
	// Sampling is the ProfileMe unit configuration every shard runs under
	// — pmsim builds it from the same flags as its single run — which is
	// what keeps the shard databases merge-compatible. MeanInterval
	// defaults to 512 and BufferDepth to 8; Seed is overwritten per attempt
	// with the seed derived from the fleet's.
	Sampling core.Config
	// Seed is the fleet seed: per-job, per-attempt sampling seeds are
	// pure functions of it, so campaigns replay exactly (default 1).
	Seed uint64
	// CheckpointDir enables crash-safe checkpointing ("" = none).
	CheckpointDir string
	// CPU is the pipeline configuration (zero value = cpu.DefaultConfig).
	// Its WatchdogCycles composes with Deadline: the watchdog converts a
	// genuine livelock into a retryable typed error long before the
	// wall-clock deadline has to fire.
	CPU cpu.Config
	// Sink, when set, additionally delivers each completed shard to a
	// remote collector (pmsim -submit wires NewHTTPSink to a pmsimd
	// daemon). Delivery failures degrade to local-only aggregation; they
	// never fail the job.
	Sink Sink
	// Log receives progress records, tagged component=runner (nil =
	// discard).
	Log *slog.Logger

	execute executeFunc          // test seam; nil = simulate
	fsync   func(*os.File) error // test seam for the journal; nil = (*os.File).Sync

	// Test seams with their defaults: the per-job attempt budget before
	// dead-lettering (3); how long in-flight jobs may keep running after
	// the Run context is canceled before they are hard-canceled (2s); and
	// the exponential retry backoff, 100ms doubling to at most 5s, with
	// ±50% jitter applied deterministically.
	maxAttempts             int
	grace                   time.Duration
	backoffBase, backoffMax time.Duration
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.maxAttempts == 0 {
		c.maxAttempts = 3
	}
	if c.grace == 0 {
		c.grace = 2 * time.Second
	}
	if c.backoffBase == 0 {
		c.backoffBase = 100 * time.Millisecond
	}
	if c.backoffMax == 0 {
		c.backoffMax = 5 * time.Second
	}
	if c.Sampling.MeanInterval == 0 {
		c.Sampling.MeanInterval = 512
	}
	if c.Sampling.BufferDepth == 0 {
		c.Sampling.BufferDepth = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CPU.ROBSize == 0 {
		c.CPU = cpu.DefaultConfig()
	}
	switch {
	case c.Workers < 1:
		return fmt.Errorf("runner: %d workers", c.Workers)
	case c.Deadline < 0:
		return fmt.Errorf("runner: negative deadline %v", c.Deadline)
	}
	if err := c.Sampling.Validate(); err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	return c.CPU.Validate()
}

// Fleet is one campaign: a job ledger, an aggregate profile, and — while
// Run is executing — the open journal. Build with New or Resume, run once
// with Run.
type Fleet struct {
	cfg     Config
	log     *slog.Logger
	records []*jobRecord
	byID    map[string]*jobRecord
	agg     *profile.DB
	totals  totals
	wal     *wal.Log // the journal; opened and closed by Run, nil without a checkpoint directory
	drained bool
	ran     bool
}

// New builds a fresh fleet. If a checkpoint directory is configured it
// must not already hold a campaign — resuming must be an explicit choice
// (Resume), never an accident that mixes two campaigns' samples.
func New(cfg Config, jobs []Job) (*Fleet, error) {
	f, err := build(cfg, jobs)
	if err != nil {
		return nil, err
	}
	if dir := f.cfg.CheckpointDir; dir != "" {
		if err := checkpointDir(dir); err != nil {
			return nil, err
		}
		if info, err := wal.Replay(dir, nil); err != nil {
			return nil, err
		} else if info.Records > 0 {
			return nil, fmt.Errorf("runner: checkpoint directory %s already holds a campaign (%d journal records): resume it or point at a clean directory", dir, info.Records)
		}
	}
	return f, nil
}

// Resume rebuilds a fleet from the journal in cfg.CheckpointDir: every
// intact record is replayed in order — shard images re-merged, completed
// and dead-lettered jobs kept as-is, interrupted jobs given back their
// attempt count — and only jobs without a terminal record are re-enqueued.
// A journal written under another fleet seed or sampling configuration is
// refused. Resume only reads; Run repairs a damaged tail when it opens the
// journal for writing. An empty directory starts a fresh campaign.
func Resume(cfg Config, jobs []Job) (*Fleet, error) {
	f, err := build(cfg, jobs)
	if err != nil {
		return nil, err
	}
	if f.cfg.CheckpointDir == "" {
		return nil, errors.New("runner: resume needs a checkpoint directory")
	}
	if err := checkpointDir(f.cfg.CheckpointDir); err != nil {
		return nil, err
	}
	var refused error // a record's own verdict, without the WAL's position wrapping
	info, err := wal.Replay(f.cfg.CheckpointDir, func(_ wal.Pos, payload []byte) error {
		refused = f.replay(payload)
		return refused
	})
	if refused != nil {
		return nil, refused
	} else if err != nil {
		return nil, err
	}
	rep := f.buildReport()
	attrs := []any{"done", rep.Completed, "dead", rep.DeadLettered, "pending", rep.Pending, "records", info.Records}
	if info.Truncated {
		// The records from there on are dropped and their jobs re-run.
		attrs = append(attrs, "damaged_at", info.TruncatedAt.String())
	}
	f.log.Info("resumed", attrs...)
	return f, nil
}

func build(cfg Config, jobs []Job) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("runner: no jobs")
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	f := &Fleet{cfg: cfg, log: log.With("component", "runner"), byID: make(map[string]*jobRecord, len(jobs))}
	for _, job := range jobs {
		if job.ID == "" {
			return nil, errors.New("runner: job with empty ID")
		}
		if _, dup := f.byID[job.ID]; dup {
			return nil, fmt.Errorf("runner: duplicate job ID %q", job.ID)
		}
		rec := &jobRecord{Job: job, Status: statusPending}
		f.records = append(f.records, rec)
		f.byID[job.ID] = rec
	}
	return f, nil
}

// Profile returns the aggregate database (nil until a job completes).
func (f *Fleet) Profile() *profile.DB { return f.agg }

type outKind int

const (
	outDone outKind = iota
	outDead
	outInterrupted
)

// outcome is what a worker reports back for one job. attempts and seed
// are absolute (post-resume) values for the journal.
type outcome struct {
	rec      *jobRecord
	kind     outKind
	art      *jobArtifacts
	err      error
	attempts int
	seed     uint64
	// submitErr is the terminal remote-submission failure, when a sink is
	// configured and delivery exhausted its retries (nil otherwise).
	submitErr error
}

// errGraceExpired is the hard-cancellation cause after a drain grace
// period runs out.
var errGraceExpired = errors.New("runner: drain grace period expired")

// Run executes the campaign until every job is done or dead, or until ctx
// is canceled — then it drains: dispatch stops, in-flight jobs get
// cfg.grace to finish, stragglers are hard-canceled (their attempt is not
// charged, their attempt count is journaled), and the report says what
// was completed, retried, dead-lettered, and lost. The journal is open
// only while Run executes. Run may be called once per Fleet.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	if f.ran {
		return nil, errors.New("runner: fleet already ran; build a new one (or Resume)")
	}
	f.ran = true

	var pending []*jobRecord
	for _, rec := range f.records {
		if rec.Status == statusPending {
			pending = append(pending, rec)
		}
	}
	if len(pending) == 0 {
		return f.buildReport(), nil
	}
	if dir := f.cfg.CheckpointDir; dir != "" {
		l, _, err := wal.Open(wal.Config{Dir: dir, Fsync: f.cfg.fsync, Log: f.cfg.Log}, nil)
		if err != nil {
			return f.buildReport(), fmt.Errorf("runner: journal: %w", err)
		}
		// Every record was fsynced by its own Append; Close has nothing
		// left to lose.
		defer l.Close()
		f.wal = l
	}

	hardCtx, hardCancel := context.WithCancelCause(context.Background())
	defer hardCancel(nil)

	workers := f.cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	queue := make(chan *jobRecord)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range queue {
				results <- f.runJob(hardCtx, rec)
			}
		}()
	}
	go func() { // dispatcher: stops feeding the moment a drain starts
		defer close(queue)
		for _, rec := range pending {
			select {
			case queue <- rec:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { wg.Wait(); close(results) }()

	// Drain timer: soft cancel -> grace -> hard cancel.
	supDone := make(chan struct{})
	defer close(supDone)
	go func() {
		select {
		case <-supDone:
			return
		case <-ctx.Done():
		}
		t := time.NewTimer(f.cfg.grace)
		defer t.Stop()
		select {
		case <-t.C:
			hardCancel(errGraceExpired)
		case <-supDone:
		}
	}()

	var firstErr error
	for out := range results {
		rec := out.rec
		rec.Attempts = out.attempts
		rec.Seed = out.seed
		err := out.err
		if out.kind == outDone {
			err = f.absorb(out)
		}
		var shard *profile.DB // journaled with the record of a merged job
		switch {
		case out.kind == outInterrupted:
			// Stays pending; a resumed campaign re-runs it.
			f.log.Info("job interrupted", "job", rec.Job.ID)
		case err != nil:
			rec.Status = statusDead
			rec.Error = err.Error()
			f.log.Error("job dead-lettered", "job", rec.Job.ID, "attempts", out.attempts, "err", err)
		default:
			shard = out.art.db
			f.log.Info("job done", "job", rec.Job.ID, "attempt", out.attempts)
		}
		if err := f.journal(rec, shard); err != nil && firstErr == nil {
			// Progress can no longer be persisted: stop the campaign
			// rather than burn work that a crash would lose wholesale.
			firstErr = err
			hardCancel(err)
		}
	}

	if ctx.Err() != nil {
		f.drained = true
	}
	return f.buildReport(), firstErr
}

// absorb merges a completed job's shard database into the aggregate and
// rolls its run totals into the campaign ledger. A shard that cannot
// merge (config drift, self-handoff bug) is a permanent failure of that
// job, not of the fleet.
func (f *Fleet) absorb(out outcome) error {
	rec := out.rec
	if f.agg == nil {
		// The aggregate starts as the first shard itself; that shard's
		// record is journaled before the next merge touches it.
		f.agg = out.art.db
	} else if err := f.agg.Merge(out.art.db); err != nil {
		return err
	}
	rec.Status = statusDone
	rec.Error = ""
	if f.cfg.Sink != nil {
		if out.submitErr == nil {
			f.totals.ShardsSubmitted++
		} else {
			f.totals.ShardsSubmitFailed++
			f.log.Warn("shard not delivered", "job", rec.Job.ID, "err", out.submitErr)
		}
	}
	f.totals.Retired += out.art.res.Retired
	f.totals.Cycles += out.art.res.Cycles
	f.totals.SamplesCaptured += out.art.stats.Captured()
	f.totals.InterruptsDropped += out.art.faults.InterruptsDropped
	f.totals.SamplesCorrupted += out.art.faults.SamplesCorrupted
	return nil
}

// runJob drives one job to a terminal outcome: attempt, classify, back
// off, retry with a perturbed seed — or bail out when the fleet is
// hard-canceled (the chopped attempt is not charged to the budget).
func (f *Fleet) runJob(hardCtx context.Context, rec *jobRecord) outcome {
	attempts := rec.Attempts
	seed := rec.Seed
	for {
		if hardCtx.Err() != nil {
			return outcome{rec: rec, kind: outInterrupted, attempts: attempts, seed: seed}
		}
		attempts++
		seed = jobSeed(f.cfg.Seed, rec.Job.ID, attempts)
		actx, cancel := hardCtx, context.CancelFunc(func() {})
		if f.cfg.Deadline > 0 {
			actx, cancel = context.WithTimeoutCause(hardCtx, f.cfg.Deadline,
				fmt.Errorf("runner: attempt deadline %v expired", f.cfg.Deadline))
		}
		art, err := f.exec(actx, rec.Job, seed)
		cancel()
		if err == nil {
			// Remote delivery happens in the worker (network I/O overlaps
			// other jobs' simulation) and never re-runs the simulation: the
			// artifacts are already in hand, only the POST retries.
			return outcome{rec: rec, kind: outDone, art: art, attempts: attempts, seed: seed,
				submitErr: f.submitShard(hardCtx, rec.Job.ID, art.db)}
		}
		if hardCtx.Err() != nil {
			return outcome{rec: rec, kind: outInterrupted, attempts: attempts - 1, seed: seed}
		}
		f.log.Warn("attempt failed", "job", rec.Job.ID, "attempt", attempts, "err", err)
		if !transientErr(err) || attempts >= f.cfg.maxAttempts {
			return outcome{rec: rec, kind: outDead, err: err, attempts: attempts, seed: seed}
		}
		select {
		case <-time.After(f.backoff(rec.Job.ID, attempts)):
		case <-hardCtx.Done():
			return outcome{rec: rec, kind: outInterrupted, attempts: attempts, seed: seed}
		}
	}
}

// exec runs one attempt with panic isolation: a panic anywhere below
// (simulator bug, workload bug) becomes a panicError carrying the stack,
// and only this job pays for it.
func (f *Fleet) exec(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
	return isolate(func() (*jobArtifacts, error) {
		if f.cfg.execute != nil {
			return f.cfg.execute(ctx, job, seed)
		}
		return f.simulate(ctx, job, seed)
	})
}

// backoff returns the sleep before retry attempt+1: exponential in the
// attempt number, capped, with ±50% jitter drawn from a seed-derived RNG
// so the whole campaign — including its backoff schedule — replays
// deterministically.
func (f *Fleet) backoff(id string, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := f.cfg.backoffBase << uint(shift)
	if d <= 0 || d > f.cfg.backoffMax {
		d = f.cfg.backoffMax
	}
	rng := stats.NewRNG(jobSeed(f.cfg.Seed, id, attempt) ^ 0xb0ff)
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}
