// Package traffic is the trace-driven load layer: it turns a declarative
// JSON spec — cohorts of fleets with diurnal ramps and superimposed
// bursts — into a deterministic schedule of shard submissions, drives
// them at a collector through runner.HTTPSink, records every submission
// into a versioned CRC-framed trace file (DESIGN.md §15), and replays a
// captured trace bit-for-bit, at recorded speed or time-warped.
//
// Everything downstream of a (Spec, Seed) pair is deterministic: the
// arrival schedule, the shard payload bytes, and the trace file written
// from them are all bit-identical across runs of the same build. That is
// the contract the replay-determinism CI job enforces.
package traffic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"profileme/internal/workload"
)

// SpecVersion is the traffic-spec schema version this build reads and
// writes.
const SpecVersion = 1

// errBadSpec reports a spec that fails validation; the message names the
// offending field.
var errBadSpec = errors.New("traffic: bad spec")

// Spec declares a multi-period arrival process: one seeded RNG drives
// every cohort's thinned Poisson schedule, every payload's data layout,
// and every sampling unit's interval draws, so the whole offered load is
// reproducible from this one document.
type Spec struct {
	// Version is the spec schema version (SpecVersion).
	Version int `json:"version"`
	// Seed is the master seed; every derived RNG (per-cohort arrivals,
	// per-shard data layouts, sampling units) mixes from it.
	Seed uint64 `json:"seed"`
	// DurationS is the modeled duration of the arrival process in
	// seconds. Wall-clock duration is DurationS / speed.
	DurationS float64 `json:"duration_s"`
	// Interval is the mean sampling interval shared by every cohort.
	// It is spec-global because the collector's aggregate refuses
	// mixed-interval merges (409 config-mismatch): cohorts may vary
	// seeds, scales and buffer depths, never the interval.
	Interval float64 `json:"interval"`
	// Cohorts are the fleets offering load (at least one).
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one fleet: a benchmark population submitting shard profiles
// with its own rate shape and sampling configuration.
type Cohort struct {
	// Name tags the cohort in trace records and reports (unique).
	Name string `json:"name"`
	// Bench names a workload.Suite benchmark.
	Bench string `json:"bench"`
	// Scale is the benchmark build scale (dynamic-instruction target).
	Scale int `json:"scale"`
	// Shards is the cohort's pool of distinct shard payloads; arrivals
	// draw from the pool uniformly, so the same shard id resubmitting
	// (and deduping server-side) is part of the modeled load.
	Shards int `json:"shards"`
	// BaseRate is the baseline arrival rate in submissions per modeled
	// second.
	BaseRate float64 `json:"base_rate"`
	// BufferDepth is the sampling unit's buffer depth (default 8).
	BufferDepth int `json:"buffer_depth,omitempty"`
	// Diurnal optionally modulates BaseRate sinusoidally.
	Diurnal *Diurnal `json:"diurnal,omitempty"`
	// Bursts optionally superimpose load spikes.
	Bursts []Burst `json:"bursts,omitempty"`
}

// Diurnal is a sinusoidal rate modulation: rate(t) scales by
// 1 + Amplitude*sin(2π(t-PhaseS)/PeriodS), a compressed day/night ramp.
type Diurnal struct {
	// Amplitude is the modulation depth in [0, 1].
	Amplitude float64 `json:"amplitude"`
	// PeriodS is the modulation period in modeled seconds.
	PeriodS float64 `json:"period_s"`
	// PhaseS shifts the cycle so cohorts can peak at different times.
	PhaseS float64 `json:"phase_s,omitempty"`
}

// Burst adds RatePerS extra submissions per modeled second during
// [AtS, AtS+DurS) — a deploy wave, a thundering herd.
type Burst struct {
	AtS      float64 `json:"at_s"`
	DurS     float64 `json:"dur_s"`
	RatePerS float64 `json:"rate_per_s"`
}

// validate checks the spec against the schema and the collector's merge
// constraints. Every failure wraps errBadSpec.
func (sp *Spec) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", errBadSpec, fmt.Sprintf(format, args...))
	}
	if sp.Version != SpecVersion {
		return bad("version %d (this build reads v%d)", sp.Version, SpecVersion)
	}
	if !(sp.DurationS > 0) || math.IsInf(sp.DurationS, 0) {
		return bad("duration_s %v must be a positive finite number", sp.DurationS)
	}
	if !(sp.Interval > 0) {
		return bad("interval %v must be positive", sp.Interval)
	}
	if len(sp.Cohorts) == 0 {
		return bad("no cohorts")
	}
	seen := make(map[string]bool, len(sp.Cohorts))
	for i := range sp.Cohorts {
		c := &sp.Cohorts[i]
		if c.Name == "" {
			return bad("cohort %d has no name", i)
		}
		if seen[c.Name] {
			return bad("duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if _, ok := workload.ByName(c.Bench); !ok {
			return bad("cohort %q: unknown benchmark %q", c.Name, c.Bench)
		}
		if c.Scale <= 0 {
			return bad("cohort %q: scale %d must be positive", c.Name, c.Scale)
		}
		if c.Shards <= 0 {
			return bad("cohort %q: shards %d must be positive", c.Name, c.Shards)
		}
		if !(c.BaseRate >= 0) || math.IsInf(c.BaseRate, 0) {
			return bad("cohort %q: base_rate %v must be finite and >= 0", c.Name, c.BaseRate)
		}
		if c.BufferDepth < 0 {
			return bad("cohort %q: buffer_depth %d must be >= 0", c.Name, c.BufferDepth)
		}
		if d := c.Diurnal; d != nil {
			if d.Amplitude < 0 || d.Amplitude > 1 {
				return bad("cohort %q: diurnal amplitude %v outside [0, 1]", c.Name, d.Amplitude)
			}
			if !(d.PeriodS > 0) {
				return bad("cohort %q: diurnal period_s %v must be positive", c.Name, d.PeriodS)
			}
		}
		for j, b := range c.Bursts {
			if b.AtS < 0 || !(b.DurS > 0) || !(b.RatePerS >= 0) || math.IsInf(b.RatePerS, 0) {
				return bad("cohort %q: burst %d (at_s=%v dur_s=%v rate_per_s=%v) malformed",
					c.Name, j, b.AtS, b.DurS, b.RatePerS)
			}
		}
		if c.peakRate() <= 0 {
			return bad("cohort %q offers no load (zero rate everywhere)", c.Name)
		}
	}
	return nil
}

// rateAt is the cohort's instantaneous arrival rate at modeled time t
// (seconds): the diurnally-modulated baseline plus every active burst.
func (c *Cohort) rateAt(t float64) float64 {
	r := c.BaseRate
	if d := c.Diurnal; d != nil {
		r *= 1 + d.Amplitude*math.Sin(2*math.Pi*(t-d.PhaseS)/d.PeriodS)
	}
	for _, b := range c.Bursts {
		if t >= b.AtS && t < b.AtS+b.DurS {
			r += b.RatePerS
		}
	}
	if r < 0 {
		r = 0
	}
	return r
}

// peakRate upper-bounds rateAt over all t — the thinning envelope.
func (c *Cohort) peakRate() float64 {
	r := c.BaseRate
	if d := c.Diurnal; d != nil {
		r *= 1 + d.Amplitude
	}
	for _, b := range c.Bursts {
		r += b.RatePerS
	}
	return r
}

// ParseSpec decodes and validates a JSON spec document. Unknown fields
// are rejected — a typo'd knob must fail loudly, not silently offer the
// default load.
func ParseSpec(data []byte) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSpec, err)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}
