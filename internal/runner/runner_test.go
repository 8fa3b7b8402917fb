package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
)

// testConfig returns a fleet configuration with fast backoff and grace so
// supervision tests run in milliseconds.
func testConfig(workers int) Config {
	return Config{
		Workers:     workers,
		maxAttempts: 3,
		grace:       5 * time.Millisecond,
		backoffBase: time.Microsecond,
		backoffMax:  10 * time.Microsecond,
		Seed:        7,
	}
}

func testJobs(ids ...string) []Job {
	jobs := make([]Job, len(ids))
	for i, id := range ids {
		jobs[i] = Job{ID: id, Bench: "compress", Scale: 1000}
	}
	return jobs
}

// stubArtifacts builds a minimal mergeable result for stub executors.
// The database must share the fleet's sampling configuration; cfg must
// already be normalized (use the same literal values as testConfig after
// defaults).
func stubArtifacts(interval float64, c int) *jobArtifacts {
	db := profile.NewDB(interval, 0, c)
	r := core.Record{PC: 0x40, LoadComplete: -1}
	for i := range r.StageCycle {
		r.StageCycle[i] = int64(i)
	}
	r.Events |= core.EvRetired
	db.Add(core.Sample{First: r})
	return &jobArtifacts{db: db, res: cpu.Result{Retired: 100, Cycles: 50}}
}

// recordLogger returns a logger for Config.Log and a reader of every
// record it has received, each one decoded from its JSON line.
func recordLogger(t *testing.T) (*slog.Logger, func() []map[string]any) {
	var buf bytes.Buffer // the handler writes each record whole, under its own lock
	return slog.New(slog.NewJSONHandler(&buf, nil)), func() []map[string]any {
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			recs = append(recs, rec)
		}
		return recs
	}
}

// countRecords counts the records with message msg whose attributes
// include each key/value pair of kv, values compared as fmt prints them.
func countRecords(recs []map[string]any, msg string, kv ...any) int {
	n := 0
next:
	for _, rec := range recs {
		if rec["msg"] != msg {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if fmt.Sprint(rec[kv[i].(string)]) != fmt.Sprint(kv[i+1]) {
				continue next
			}
		}
		n++
	}
	return n
}

func mustRun(t *testing.T, f *Fleet) *Report {
	t.Helper()
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return rep
}

// TestPanicIsolation: one job panics deterministically; it must be
// dead-lettered with the stack captured, while every other job completes
// and the fleet returns no error.
func TestPanicIsolation(t *testing.T) {
	cfg := testConfig(2)
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		if job.ID == "boom" {
			panic("injected worker panic")
		}
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("a", "boom", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.Completed != 3 || rep.DeadLettered != 1 {
		t.Fatalf("completed %d, dead %d; want 3, 1", rep.Completed, rep.DeadLettered)
	}
	var boom jobRecord
	for _, rec := range f.records {
		if rec.Job.ID == "boom" {
			boom = *rec
		}
	}
	if boom.Status != statusDead {
		t.Fatalf("panicked job status %q", boom.Status)
	}
	if boom.Attempts != 1 {
		t.Fatalf("panic retried (%d attempts): panics are permanent", boom.Attempts)
	}
	if !strings.Contains(boom.Error, "injected worker panic") ||
		!strings.Contains(boom.Error, "runner.(*Fleet).exec") {
		t.Fatalf("dead letter lacks panic value or stack:\n%s", boom.Error)
	}
}

// TestRetryBackoffAndSeedPerturbation: a job that livelocks twice and
// then succeeds must consume exactly 3 attempts, each with a distinct
// seed, and be reported as retried.
func TestRetryBackoffAndSeedPerturbation(t *testing.T) {
	var mu sync.Mutex
	seeds := make(map[string][]uint64)
	cfg := testConfig(1)
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		mu.Lock()
		seeds[job.ID] = append(seeds[job.ID], seed)
		n := len(seeds[job.ID])
		mu.Unlock()
		if job.ID == "flaky" && n < 3 {
			return nil, fmt.Errorf("wedged: %w", cpu.ErrLivelock)
		}
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("flaky", "solid"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.Completed != 2 || rep.Retried != 1 || rep.DeadLettered != 0 {
		t.Fatalf("completed %d, retried %d, dead %d", rep.Completed, rep.Retried, rep.DeadLettered)
	}
	got := seeds["flaky"]
	if len(got) != 3 {
		t.Fatalf("flaky ran %d attempts, want 3", len(got))
	}
	if got[0] == got[1] || got[1] == got[2] || got[0] == got[2] {
		t.Fatalf("retry seeds not perturbed: %v", got)
	}
	// Seeds are a pure function of (fleet seed, ID, attempt).
	for i, s := range got {
		if want := jobSeed(7, "flaky", i+1); s != want {
			t.Fatalf("attempt %d seed %d, want %d", i+1, s, want)
		}
	}
}

// TestDeadLetterAfterBudget: an incurable transient failure exhausts the
// attempt budget and lands in the dead-letter list.
func TestDeadLetterAfterBudget(t *testing.T) {
	cfg := testConfig(1)
	cfg.maxAttempts = 2
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		return nil, fmt.Errorf("still wedged: %w", cpu.ErrLivelock)
	}
	f, err := New(cfg, testJobs("hopeless"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.DeadLettered != 1 || rep.Completed != 0 {
		t.Fatalf("dead %d, completed %d", rep.DeadLettered, rep.Completed)
	}
	if rep.Attempts != 2 {
		t.Fatalf("charged %d attempts, budget 2", rep.Attempts)
	}
	if len(rep.DeadLetters) != 1 || rep.DeadLetters[0] != "hopeless" {
		t.Fatalf("dead letters %v", rep.DeadLetters)
	}
}

// TestPermanentErrorNotRetried: a non-transient failure (unknown
// benchmark) must not burn the retry budget.
func TestPermanentErrorNotRetried(t *testing.T) {
	cfg := testConfig(1)
	f, err := New(cfg, []Job{{ID: "bad", Bench: "no-such-bench", Scale: 100}})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.DeadLettered != 1 || rep.Attempts != 1 {
		t.Fatalf("dead %d, attempts %d; permanent errors get one attempt", rep.DeadLettered, rep.Attempts)
	}
}

// TestUnmergeableShardLoggedDeadNotDone: the verdict is logged once the
// merge has decided it — a shard that cannot merge (config drift) is
// never announced "done" and then reported dead.
func TestUnmergeableShardLoggedDeadNotDone(t *testing.T) {
	cfg := testConfig(1)
	var records func() []map[string]any
	cfg.Log, records = recordLogger(t)
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		if job.ID == "drifted" {
			return stubArtifacts(64, cpu.DefaultConfig().SustainedIssueWidth), nil
		}
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("a", "drifted"))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	recs := records()
	if rep.Completed != 1 || rep.DeadLettered != 1 ||
		countRecords(recs, "job done", "job", "drifted") != 0 || countRecords(recs, "job dead-lettered", "job", "drifted") != 1 {
		t.Fatalf("completed %d, dead %d, log:\n%v", rep.Completed, rep.DeadLettered, recs)
	}
}

// TestAttemptDeadlineIsTransient: an executor that honors its context
// and never finishes is cut off by the per-attempt deadline, retried,
// and finally dead-lettered — with the deadline actually enforced.
func TestAttemptDeadlineIsTransient(t *testing.T) {
	cfg := testConfig(1)
	cfg.maxAttempts = 2
	cfg.Deadline = 10 * time.Millisecond
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %v", cpu.ErrCanceled, context.Cause(ctx))
	}
	f, err := New(cfg, testJobs("slow"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep := mustRun(t, f)
	if rep.DeadLettered != 1 || rep.Attempts != 2 {
		t.Fatalf("dead %d, attempts %d; want deadline treated as transient", rep.DeadLettered, rep.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: run took %v", elapsed)
	}
}

// TestGracefulDrain: canceling the Run context stops dispatch, leaves
// unstarted and hard-canceled jobs pending without charging their
// attempts, and reports the drain.
func TestGracefulDrain(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	cfg := testConfig(1)
	cfg.grace = time.Millisecond
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		started <- job.ID
		if job.ID == "first" {
			return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
		}
		select { // an in-flight job that only yields to hard cancellation
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", cpu.ErrCanceled, context.Cause(ctx))
		case <-release:
			return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
		}
	}
	f, err := New(cfg, testJobs("first", "second", "third", "fourth"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // "first" begins
		<-started // "second" begins (first completed: 1 worker)
		cancel()
	}()
	rep, err := f.Run(ctx)
	close(release)
	if err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
	if !rep.Drained {
		t.Fatal("report does not mark the drain")
	}
	if rep.Completed != 1 || rep.Pending != 3 {
		t.Fatalf("completed %d, pending %d; want 1 completed, 3 pending", rep.Completed, rep.Pending)
	}
	for _, rec := range f.records {
		if rec.Job.ID == "second" && rec.Attempts != 0 {
			t.Fatalf("hard-canceled job charged %d attempts", rec.Attempts)
		}
	}
}

// TestRunOnce: a fleet refuses to run twice.
func TestRunOnce(t *testing.T) {
	cfg := testConfig(1)
	cfg.execute = func(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
		return stubArtifacts(512, cpu.DefaultConfig().SustainedIssueWidth), nil
	}
	f, err := New(cfg, testJobs("a"))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, f)
	if _, err := f.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestBuildRejectsBadInput: duplicate and empty job IDs, no jobs, and
// invalid configuration are refused up front.
func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := New(testConfig(1), nil); err == nil {
		t.Fatal("no jobs accepted")
	}
	if _, err := New(testConfig(1), testJobs("a", "a")); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
	if _, err := New(testConfig(1), []Job{{ID: ""}}); err == nil {
		t.Fatal("empty job ID accepted")
	}
	bad := testConfig(1)
	bad.Workers = -1
	if _, err := New(bad, testJobs("a")); err == nil {
		t.Fatal("negative workers accepted")
	}
	bad = testConfig(1)
	bad.Deadline = -time.Second
	if _, err := New(bad, testJobs("a")); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

// TestSimulatedFleetEndToEnd runs a real (no-stub) sharded campaign and
// checks the aggregate profile carries samples from every shard with the
// loss accounting consistent.
func TestSimulatedFleetEndToEnd(t *testing.T) {
	cfg := testConfig(4)
	cfg.Sampling.MeanInterval = 128
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("compress/s%03d", i), Bench: "compress", Scale: 4000}
	}
	f, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.Completed != 6 || rep.DeadLettered != 0 || rep.Pending != 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	db := f.Profile()
	if db == nil || db.Samples() == 0 {
		t.Fatal("aggregate profile empty")
	}
	if rep.SamplesDelivered != db.Samples() {
		t.Fatalf("report delivered %d != db %d", rep.SamplesDelivered, db.Samples())
	}
	if rep.Retired == 0 || rep.Cycles == 0 {
		t.Fatalf("totals not accumulated: %+v", rep)
	}
}

// TestChaosFleetRetriesAndSurvives drives the retry path the way the
// soak does: heavy chaos makes some attempts fail transiently; the fleet must still converge with retries
// and keep the loss ledger.
func TestChaosFleetRetriesAndSurvives(t *testing.T) {
	cfg := testConfig(4)
	cfg.Sampling.MeanInterval = 128
	cfg.maxAttempts = 4
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("chaos/s%03d", i), Bench: "compress", Scale: 4000, ChaosRate: 0.3}
	}
	f, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, f)
	if rep.Completed != 4 {
		t.Fatalf("chaos fleet completed %d/4: %+v", rep.Completed, rep)
	}
	if rep.SamplesLost == 0 {
		t.Fatal("30% chaos lost no samples — fault plan not attached?")
	}
	if rep.SamplesCaptured < rep.SamplesDelivered {
		t.Fatalf("captured %d < delivered %d", rep.SamplesCaptured, rep.SamplesDelivered)
	}
}
