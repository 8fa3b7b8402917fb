package runner

import (
	"context"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/faultinject"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/sim"
)

// Shard is one profiled simulation: the sample database a run fed (hardware
// losses already recorded, so Samples()+Lost() is everything the unit
// captured), the pipeline's result, the unit's counters, and the pipeline
// itself for reports that read its predictor and caches.
type Shard struct {
	DB       *profile.DB
	Result   cpu.Result
	Stats    core.Stats
	Pipeline *cpu.Pipeline
}

// Exact builds pipe's exact profile (profile.NewExact) from its PerPC
// truth on demand; RunShard never does. No other slot is filled: the
// pipeline counts misses and taken branches at retirement only, a sampled
// database on samples of any fate, and issue slots have no slot at all.
func Exact(pipe *cpu.Pipeline) *profile.DB {
	pcs := pipe.PerPC()
	return profile.NewExact(len(pcs), func(i int) (uint64, uint64, uint64, int64) {
		return pcs[i].PC, pcs[i].Fetched, pcs[i].Retired, pcs[i].LatInProgress
	})
}

// dbParams derives a shard database's (S, W, C) from the two configurations
// that produced it: S is the configured mean interval (never the realized
// one — shards of one campaign must agree on it to merge), W the pairing
// window when samples are paired and 0 otherwise, C the
// machine's sustained issue width. RunShard stamps them and the journal's
// resume check compares against them; nothing else restates them.
func dbParams(ccfg cpu.Config, ucfg core.Config) (s float64, w, c int) {
	if ucfg.Paired {
		w = ucfg.Window
	}
	return ucfg.MeanInterval, w, ccfg.SustainedIssueWidth
}

// RunShard is the one way a profiled run is made: pmsim's single run, every
// fleet job, every pmtraffic gen payload, each ProfileMe run of the
// experiments and examples. It runs prog on a ccfg pipeline with a ucfg
// ProfileMe unit feeding a fresh database, under plan (nil = no fault
// injection) attached to both unit and pipeline, until the program ends
// or ctx is done. also, when non-nil, sees
// each delivered sample batch after the database has; it is for what the
// database does not keep, never for re-counting what it does. A run with
// no ProfileMe unit is a plain cpu.New call. Outside this function only
// two runs build a unit (TestOneShardPath names them and why).
//
// A configuration error returns the zero Shard. A run that ended early —
// canceled, livelocked, or a stream that died of a runaway
// PC — returns the partial Shard with cpu.Pipeline.RunContext's error: an
// interrupted run degrades to a shorter one, loss accounting included.
func RunShard(ctx context.Context, prog *isa.Program, ccfg cpu.Config, ucfg core.Config,
	plan *faultinject.Plan, also func([]core.Sample)) (Shard, error) {
	unit, err := core.NewUnit(ucfg)
	if err != nil {
		return Shard{}, err
	}
	pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), ccfg)
	if err != nil {
		return Shard{}, err
	}
	db := profile.NewDB(dbParams(ccfg, ucfg))
	handler := db.Handler()
	if also != nil {
		add := handler
		handler = func(ss []core.Sample) { add(ss); also(ss) }
	}
	pipe.AttachProfileMe(unit, handler)
	if plan != nil {
		unit.AttachFaults(plan)
		pipe.AttachFaults(plan)
	}
	res, err := pipe.RunContext(ctx, 0)
	st := unit.Stats()
	db.RecordLoss(st.Lost())
	return Shard{DB: db, Result: res, Stats: st, Pipeline: pipe}, err
}
