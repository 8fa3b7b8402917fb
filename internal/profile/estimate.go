// Package profile is the profiling software of the reproduction (paper
// §5): it drains ProfileMe samples into a compact per-PC database
// (DCPI-style incremental aggregation), estimates instruction-level event
// frequencies with confidence intervals (§5.1), and analyzes paired
// samples for concurrency metrics — overlap, wasted issue slots (§5.2.3),
// and neighborhood IPC (§5.2.4).
//
// Two layers share the work. DB is the single-owner aggregation core:
// exact, not concurrency-safe, and its accessors (Get, HotPCs) return
// pointers that alias live state. SafeDB is the concurrent serving
// layer: writers go through its lock while readers get immutable,
// atomically-published snapshots (View) backed by streaming summaries —
// a space-saving top-K sketch (spaceSaving), log-bucketed quantile
// sketches (quantileSketch), and a time-windowed ring (windowRing) — so
// hot-PC and percentile queries are O(K), never O(DB). DESIGN.md §13
// specifies the query & summary model; every approximate answer carries
// its error bound.
package profile

import (
	"math"

	"profileme/internal/core"
)

// estimateCount scales a sample count to an estimated event count: with an
// average sampling interval of S fetched instructions, k samples having a
// property estimate k*S occurrences (§5.1: E[kS] = fN).
func estimateCount(k uint64, s float64) float64 { return float64(k) * s }

// relativeError returns the expected coefficient of variation of an
// estimate built from k property-samples: ≈ sqrt(1/k) (§5.1). It returns
// +Inf for k == 0.
func relativeError(k uint64) float64 {
	if k == 0 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(float64(k))
}

// ConfidenceInterval returns the [lo, hi] interval around the estimate
// kS at z standard deviations (z = 1 covers ≈ 68%, z = 1.96 ≈ 95%).
func ConfidenceInterval(k uint64, s, z float64) (lo, hi float64) {
	est := estimateCount(k, s)
	if k == 0 {
		return 0, z * s // zero samples still bound the count below ~zS
	}
	half := z * est * relativeError(k)
	lo = est - half
	if lo < 0 {
		lo = 0
	}
	return lo, est + half
}

// RateEstimate estimates the rate of a property among executions of one
// instruction (e.g. per-instruction D-cache miss rate): the ratio of
// property-samples to total samples for that PC. Both sample counts must
// come from the same sampling stream, so the interval S cancels.
func RateEstimate(kProperty, kTotal uint64) float64 {
	if kTotal == 0 {
		return 0
	}
	return float64(kProperty) / float64(kTotal)
}

// usefulOverlap is the §5.2.3 definition of overlap: while a is in
// progress (fetch to retire-ready), b issues and subsequently retires.
// It and retiredWithin are the pair functions f(I1, I2) the database
// counts per PC (§5.2.4).
func usefulOverlap(a, b *core.Record) bool {
	from, to, ok := a.InProgress()
	if !ok {
		return false
	}
	if !b.Retired() {
		return false
	}
	issue := b.StageCycle[core.StageIssue]
	return issue >= from && issue < to
}

// retiredWithin reports whether both instructions retired within t
// cycles of each other (used by the neighborhood-IPC estimate).
func retiredWithin(a, b *core.Record, t int64) bool {
	if !a.Retired() || !b.Retired() {
		return false
	}
	d := a.StageCycle[core.StageRetire] - b.StageCycle[core.StageRetire]
	if d < 0 {
		d = -d
	}
	return d <= t
}
