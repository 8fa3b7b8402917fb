package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/faultinject"
	"profileme/internal/profile"
	"profileme/internal/workload"
)

// Job is one unit of campaign work: a benchmark (or generated program) ×
// scale × shard, profiled with a shard-specific sampling seed. Shards of
// the same campaign differ only by seed, so their profiles merge into one
// loss-corrected aggregate exactly like the independent sampled runs the
// paper's aggregation argument assumes.
type Job struct {
	// ID names the job uniquely within the campaign (e.g. "compress/s003");
	// the checkpoint journal tracks outcomes by ID.
	ID string `json:"id"`
	// Bench is a workload suite benchmark name; empty means a generated
	// program from GenSeed.
	Bench   string `json:"bench,omitempty"`
	GenSeed uint64 `json:"gen_seed,omitempty"`
	// Scale is the approximate dynamic instruction count.
	Scale int `json:"scale"`
	// ChaosRate arms fault injection at this uniform rate (0 = clean run);
	// the fault seed is derived from the attempt seed, so retries perturb
	// the fault stream along with the sampling stream.
	ChaosRate float64 `json:"chaos_rate,omitempty"`
}

// Job status values recorded in the journal.
const (
	statusPending = "pending" // not yet finished (fresh, or interrupted by a drain)
	statusDone    = "done"    // profile merged into the aggregate
	statusDead    = "dead"    // attempt budget exhausted or permanent failure
)

// jobRecord is the per-job ledger entry, journaled with each outcome:
// everything Resume needs to re-enqueue only unfinished work and to keep
// retry budgets across drains.
type jobRecord struct {
	Job      Job    `json:"job"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	// Seed is the sampling seed of the deciding attempt (the one that
	// completed, dead-lettered, or was in flight when interrupted).
	Seed  uint64 `json:"seed,omitempty"`
	Error string `json:"error,omitempty"`
}

// panicError is a worker panic converted into a value: the fleet isolates
// the panic, dead-letters the job, and keeps the campaign going. Panics
// are treated as permanent (a deterministic simulator bug retries into
// the same panic).
type panicError struct {
	Value string
	Stack string
}

func (e *panicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %s\n%s", e.Value, e.Stack)
}

// transientErr reports whether a failure is worth retrying: livelocks
// and wall-clock deadline overruns are timing pathologies
// that a different sampling/fault stream usually avoids, and a
// SubmitError consults the collector's own taxonomy (429/503/5xx/
// transport transient, other 4xx permanent). Panics and
// unknown-benchmark errors are permanent.
func transientErr(err error) bool {
	var se *SubmitError
	if errors.As(err, &se) {
		return se.Transient()
	}
	return errors.Is(err, cpu.ErrLivelock) || errors.Is(err, cpu.ErrCanceled)
}

// mix64 is a splitmix64-style finalizer for seed derivation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jobSeed derives the sampling seed for one attempt of one job from the
// fleet seed. It is a pure function of (fleet seed, job ID, attempt), so
// a resumed campaign reproduces exactly the seeds an uninterrupted one
// would have used, and each retry perturbs the seed deterministically.
func jobSeed(fleetSeed uint64, id string, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	s := mix64(fleetSeed ^ h.Sum64() ^ uint64(attempt)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 1
	}
	return s
}

// jobArtifacts is what one successful attempt hands the supervisor.
type jobArtifacts struct {
	db     *profile.DB
	res    cpu.Result
	stats  core.Stats
	faults faultinject.Counts
}

// simulate runs one attempt of a job: the job's program (rebuilt per
// attempt, so concurrent workers never share mutable workload state)
// through RunShard under the fleet's pipeline and sampling configuration,
// with the attempt's seed and the fleet's cycle budget. Every shard of a
// campaign so carries the same (S, W, C) and stays merge-compatible; loss
// correction handles whatever a fault plan thins out.
func (f *Fleet) simulate(ctx context.Context, job Job, seed uint64) (*jobArtifacts, error) {
	prog, err := workload.Program(job.Bench, job.GenSeed, job.Scale)
	if err != nil {
		return nil, err
	}
	var plan *faultinject.Plan
	if job.ChaosRate > 0 {
		plan, err = faultinject.NewPlan(mix64(seed^0xc4a05), faultinject.Uniform(job.ChaosRate))
		if err != nil {
			return nil, err
		}
	}
	ucfg := f.cfg.Sampling
	ucfg.Seed = seed
	sh, err := RunShard(ctx, prog, f.cfg.CPU, ucfg, plan, nil)
	art := &jobArtifacts{db: sh.DB, res: sh.Result, stats: sh.Stats}
	if plan != nil {
		art.faults = plan.Counts()
	}
	return art, err
}
