package traffic

import (
	"context"
	"errors"
	"fmt"
	"io"
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
	// Log receives per-record degradation lines (nil = silent).
	Log io.Writer
}

func (o *Options) normalize() {
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
	// side of the tier's conservation invariant. Valid when every
	// record's body decodes (always, for generated and replayed runs).
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
		rep := newReport(recs)
		if err := tallyCaptured(recs, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	return deliver(ctx, recs, sink, opts)
}

// Replay re-runs a captured trace against the sink, pacing inter-arrival
// gaps by opts.Speed. Each record's body is decoded (validating it) and
// resubmitted under its recorded shard id; transient refusals retry, so
// when Replay returns with Failed == 0 every record was accepted and —
// because the collector's merge is order-independent and deduped by
// shard id — the final aggregate bytes are a pure function of the trace.
func Replay(ctx context.Context, recs []Record, sink runner.Sink, opts Options) (*Report, error) {
	return deliver(ctx, recs, sink, opts)
}

func newReport(recs []Record) *Report {
	rep := &Report{Records: len(recs), ByCohort: make(map[string]int)}
	seen := make(map[string]bool)
	for i := range recs {
		rep.ByCohort[recs[i].Cohort]++
		if !seen[recs[i].Shard] {
			seen[recs[i].Shard] = true
			rep.DistinctShards++
		}
	}
	return rep
}

// tallyCaptured decodes each distinct shard's body once and sums its
// captured weight.
func tallyCaptured(recs []Record, rep *Report) error {
	seen := make(map[string]bool)
	for i := range recs {
		if seen[recs[i].Shard] {
			continue
		}
		seen[recs[i].Shard] = true
		sub, err := ingest.DecodeSubmit(recs[i].Body)
		if err != nil {
			return fmt.Errorf("traffic: record %d (%s): %w", i, recs[i].Shard, err)
		}
		rep.CapturedSum += sub.Captured()
	}
	return nil
}

func deliver(ctx context.Context, recs []Record, sink runner.Sink, opts Options) (*Report, error) {
	opts.normalize()
	rep := newReport(recs)
	start := time.Now()
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
		if err := pace(ctx, start, rec.OffsetUS, opts.Speed); err != nil {
			return rep, err
		}
		if err := submitWithRetry(ctx, sink, sub, opts, rep); err != nil {
			rep.Failed++
			logf(opts.Log, "traffic: record %d (%s) failed: %v", i, rec.Shard, err)
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			continue
		}
		rep.Accepted++
	}
	if err := tallyCaptured(recs, rep); err != nil {
		return rep, err
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

// submitWithRetry applies the fleet's retry taxonomy: transient refusals
// (429/503/5xx/transport) back off and retry within the attempt budget,
// permanent refusals fail immediately.
func submitWithRetry(ctx context.Context, sink runner.Sink, sub ingest.Submission, opts Options, rep *Report) error {
	for attempt := 1; ; attempt++ {
		err := sink.Submit(ctx, sub.Shard, sub.DB)
		if err == nil {
			return nil
		}
		var se *runner.SubmitError
		transient := errors.As(err, &se) && se.Transient()
		if ctx.Err() != nil || !transient || attempt >= opts.MaxAttempts {
			return err
		}
		rep.Retries++
		delay := opts.Backoff << (attempt - 1)
		if max := opts.Backoff * 32; delay > max {
			delay = max
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
