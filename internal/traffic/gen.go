package traffic

import (
	"context"
	"fmt"
	"math"
	"sort"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// Arrival is one scheduled submission: which cohort, which shard of its
// pool, and when (microseconds of modeled time from trace start).
type Arrival struct {
	OffsetUS int64
	Cohort   string
	Shard    int // index into the cohort's payload pool
}

// Schedule expands the spec into the full arrival list, sorted by
// offset. Each cohort's arrivals come from a thinned non-homogeneous
// Poisson process: exponential candidate gaps at the cohort's peak rate,
// accepted with probability rate(t)/peak. All randomness derives from
// Spec.Seed, so the same spec always yields the identical schedule.
func (sp *Spec) Schedule() ([]Arrival, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	var all []Arrival
	for ci := range sp.Cohorts {
		c := &sp.Cohorts[ci]
		rng := stats.NewRNG(mixSeed(sp.Seed, uint64(ci), 0x5c4ed01e))
		peak := c.peakRate()
		t := 0.0
		for {
			u := rng.Float64()
			t += -math.Log(1-u) / peak
			if t >= sp.DurationS {
				break
			}
			accept := rng.Float64()
			shard := rng.Intn(c.Shards)
			if accept*peak > c.rateAt(t) {
				continue // thinned: below the instantaneous rate curve
			}
			all = append(all, Arrival{
				OffsetUS: int64(t * 1e6),
				Cohort:   c.Name,
				Shard:    shard,
			})
		}
	}
	// Merge cohorts into one timeline; ties break deterministically by
	// cohort name then shard so the schedule is a pure function of the
	// spec.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].OffsetUS != all[j].OffsetUS {
			return all[i].OffsetUS < all[j].OffsetUS
		}
		if all[i].Cohort != all[j].Cohort {
			return all[i].Cohort < all[j].Cohort
		}
		return all[i].Shard < all[j].Shard
	})
	return all, nil
}

// Payload is one materialized shard submission: the profile database a
// simulated fleet member would deliver, plus its encoded wire bytes.
type Payload struct {
	// Shard is the tier-wide shard id ("<cohort>/s<idx>").
	Shard string
	// DB is the shard's profile database, decoded.
	DB *profile.DB
	// Body is ingest.EncodeSubmit(Shard, DB) — the bytes a trace
	// records and the bytes the sink puts on the wire.
	Body []byte
	// Captured is DB.Samples()+DB.Lost(): the shard's weight in the
	// tier's conservation sum.
	Captured uint64
}

// Materialize builds every cohort's payload pool by running the real
// simulator: each shard is one pipeline run of the cohort's benchmark
// with a ProfileMe unit attached, data layout and sampling seeds derived
// from (Spec.Seed, cohort, shard). Returns pools keyed by cohort name.
//
// The shards are independent runs on runner.Map's pool, one per core,
// and each lands at its (cohort, shard) index, so the pools are a pure
// function of the spec at any pool width. Cost scales with
// Σ cohorts(Shards × Scale) ÷ cores; specs meant for quick tests should
// keep scales small.
func (sp *Spec) Materialize() (map[string][]Payload, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	type cell struct{ ci, si int }
	var cells []cell
	for ci, c := range sp.Cohorts {
		for si := 0; si < c.Shards; si++ {
			cells = append(cells, cell{ci, si})
		}
	}
	payloads, err := runner.Map(len(cells), func(i int) (Payload, error) {
		ci, si := cells[i].ci, cells[i].si
		c := &sp.Cohorts[ci]
		shardID := fmt.Sprintf("%s/s%03d", c.Name, si)
		db, err := buildShard(sp, c, ci, si)
		var body []byte
		if err == nil {
			body, err = ingest.EncodeSubmit(shardID, db)
		}
		if err != nil {
			return Payload{}, fmt.Errorf("traffic: cohort %q shard %d: %w", c.Name, si, err)
		}
		return Payload{Shard: shardID, DB: db, Body: body, Captured: db.Samples() + db.Lost()}, nil
	})
	if err != nil {
		return nil, err
	}
	pools := make(map[string][]Payload, len(sp.Cohorts))
	for _, c := range sp.Cohorts {
		pools[c.Name], payloads = payloads[:c.Shards:c.Shards], payloads[c.Shards:]
	}
	return pools, nil
}

// buildShard runs one simulated fleet member through runner.RunShard —
// the function pmsim and the fleet make their shards with — at the
// default pipeline, with data layout and sampling seed derived from
// (Spec.Seed, cohort, shard).
func buildShard(sp *Spec, c *Cohort, ci, si int) (*profile.DB, error) {
	bench, _ := workload.ByName(c.Bench) // existence validated by Materialize
	prog := bench.BuildSeeded(c.Scale, mixSeed(sp.Seed, uint64(ci), uint64(si)*2+1))
	depth := c.BufferDepth
	if depth == 0 {
		depth = 8
	}
	sh, err := runner.RunShard(context.TODO(), prog, cpu.DefaultConfig(), core.Config{
		MeanInterval: sp.Interval,
		BufferDepth:  depth,
		Seed:         mixSeed(sp.Seed, uint64(ci), uint64(si)*2+2),
	}, nil, nil)
	return sh.DB, err
}

// mixSeed derives an independent stream seed from the master seed and
// two indices (splitmix64-style finalization, matching stats.NewRNG's
// own seeding discipline).
func mixSeed(master, a, b uint64) uint64 {
	z := master ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
