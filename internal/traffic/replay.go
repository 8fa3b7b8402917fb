package traffic

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/runner"
)

// Options parameterize driving a schedule or a captured trace at a
// collector.
type Options struct {
	// Speed is the time-warp factor: 1 plays offsets as recorded, 2
	// twice as fast, 0.5 half speed. <= 0 plays with no pacing at all
	// (as fast as the collector admits) — the mode tests use.
	Speed float64
	// MaxAttempts bounds delivery attempts per submission (default 10).
	// Transient refusals (429/503/5xx/transport) retry with capped
	// exponential backoff; other 4xx are permanent and fail the record.
	MaxAttempts int
	// Backoff is the base retry delay (default 100ms, doubling per
	// attempt, capped at 32× base). Tests shrink it.
	Backoff time.Duration
	// Log receives per-record degradation records, tagged
	// component=traffic (nil = discard).
	Log *slog.Logger
}

func (o *Options) normalize() {
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	o.Log = o.Log.With("component", "traffic")
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 10
	}
	if o.Backoff == 0 {
		o.Backoff = 100 * time.Millisecond
	}
}

// Report summarizes a drive or replay run.
type Report struct {
	// Records offered, and how each delivery concluded.
	Records, Accepted, Failed int
	// Retries counts extra attempts beyond the first, across records.
	Retries int
	// ByCohort counts offered records per cohort tag.
	ByCohort map[string]int
	// DistinctShards is the number of unique shard ids offered.
	DistinctShards int
	// CapturedSum is Σ(Samples+Lost) over distinct shards — the offered
	// side of the tier's conservation invariant.
	CapturedSum uint64
}

// Drive materializes the spec, walks its schedule against the sink, and
// optionally records every submission. The trace written here is a pure
// function of the spec: record offsets are the modeled schedule offsets
// (not wall time), so the same spec and seed produce a bit-identical
// trace file whatever the collector or -speed did.
func Drive(ctx context.Context, sp *Spec, sink runner.Sink, rec *Writer, opts Options) (*Report, error) {
	sched, err := sp.Schedule()
	if err != nil {
		return nil, err
	}
	pools, err := sp.Materialize()
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(sched))
	for _, a := range sched {
		p := pools[a.Cohort][a.Shard]
		recs = append(recs, Record{
			OffsetUS: a.OffsetUS,
			Cohort:   a.Cohort,
			Shard:    p.Shard,
			Body:     p.Body,
		})
	}
	if rec != nil {
		for i := range recs {
			if err := rec.Append(recs[i]); err != nil {
				return nil, err
			}
		}
	}
	if sink == nil {
		// Record-only run: report the offered load without delivering.
		return offered(recs)
	}
	return Replay(ctx, recs, sink, opts)
}

// Replay re-runs a captured trace against the sink, pacing inter-arrival
// gaps by opts.Speed. Every record is validated up front — a trace with
// an undecodable record is refused before anything is delivered — and
// then travels as its bytes: the collector receives exactly Record.Body,
// under the fleet's retry taxonomy (runner.SubmitWithRetry) with capped
// exponential backoff. Transient refusals retry, so when Replay returns
// with Failed == 0 every record was accepted and — because the
// collector's merge is order-independent and deduped by shard id — the
// final aggregate bytes are a pure function of the trace.
func Replay(ctx context.Context, recs []Record, sink runner.Sink, opts Options) (*Report, error) {
	rep, err := offered(recs)
	if err != nil {
		return rep, err
	}
	opts.normalize()
	backoff := func(attempt int, _ error) time.Duration {
		rep.Retries++
		return min(opts.Backoff<<(attempt-1), opts.Backoff*32)
	}
	start := time.Now()
	for i := range recs {
		rec := &recs[i]
		if err := pace(ctx, start, rec.OffsetUS, opts.Speed); err != nil {
			return rep, err
		}
		if err := runner.SubmitWithRetry(ctx, sink, rec.Shard, rec.Body, opts.MaxAttempts, backoff); err != nil {
			rep.Failed++
			opts.Log.Warn("record failed", "record", i, "shard", rec.Shard, "err", err)
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			continue
		}
		rep.Accepted++
	}
	return rep, nil
}

// offered validates a record list and tallies the load it offers. Each
// record's body is decoded exactly once: that one decode is the
// replayability check, the shard-id cross-check against the frame, and
// (for the first record of each shard) the CapturedSum contribution.
func offered(recs []Record) (*Report, error) {
	rep := &Report{Records: len(recs), ByCohort: make(map[string]int)}
	seen := make(map[string]bool)
	for i := range recs {
		rec := &recs[i]
		sub, err := ingest.DecodeSubmit(rec.Body)
		if err != nil {
			return rep, fmt.Errorf("traffic: record %d (%s): %w", i, rec.Shard, err)
		}
		if sub.Shard != rec.Shard {
			return rep, fmt.Errorf("traffic: record %d: frame says shard %q, body says %q: %w",
				i, rec.Shard, sub.Shard, frame.ErrCorrupt)
		}
		rep.ByCohort[rec.Cohort]++
		if !seen[rec.Shard] {
			seen[rec.Shard] = true
			rep.DistinctShards++
			rep.CapturedSum += sub.Captured()
		}
	}
	return rep, nil
}

// pace sleeps until the record's warped offset, relative to start.
func pace(ctx context.Context, start time.Time, offsetUS int64, speed float64) error {
	if speed <= 0 {
		return ctx.Err()
	}
	due := start.Add(time.Duration(float64(offsetUS)/speed) * time.Microsecond)
	wait := time.Until(due)
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
