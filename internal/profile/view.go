package profile

import (
	"time"
)

// View is one epoch of the aggregate's published read state: an
// immutable, atomically-swapped snapshot that serves the hot query path
// with zero locking. SafeDB publishes a new View after every write —
// counters on every write, sketch rows after every merge — and readers
// load the latest with SafeDB.View().
//
// Ownership rule: a View and everything reachable from it is READ-ONLY
// and shared by every reader holding it. Callers must not mutate rows,
// accumulators, or slices; take copies (SafeDB.HotPCs does) before
// mutating. In exchange a View may be retained indefinitely — it is
// never recycled, and later writes publish fresh Views instead of
// touching this one.
type View struct {
	// Epoch increments with every published view; readers can use it to
	// detect progress and order snapshots. RowsEpoch is the epoch at
	// which TopK and Latencies were last rebuilt: counter-only
	// republishes share the previous rows, so RowsEpoch <= Epoch, and an
	// answer built from rows is as of RowsEpoch.
	Epoch     uint64
	RowsEpoch uint64
	// When is the publish time.
	When time.Time

	// Counters is the whole-aggregate rollup as of Epoch (exact, not
	// sketched).
	Counters Counters

	// RecordS and LossCorr snapshot what one record stands for (the
	// sampling interval, halved in a paired database, whose samples hold
	// two records) and the loss-correction factor, so estimate math
	// (count ~ samples * RecordS * LossCorr) needs no database access.
	RecordS  float64
	LossCorr float64

	// TopK holds the sketch's hottest PCs in descending estimate order.
	// Row contents (Acc) are exact copies as of the epoch the rows were
	// last rebuilt; membership and order are approximate with the
	// bounds in HotView. TopKCap is the sketch capacity K.
	TopK    []HotView
	TopKCap int
	// SketchN is the total sample weight the sketch has observed and
	// Floor its current minimum count: any PC absent from TopK has a
	// true count of at most Floor, and Floor <= SketchN/K.
	SketchN uint64
	Floor   uint64

	// Latencies are the published percentile summaries, one per
	// adjacent-stage latency kind plus "inprogress" (fetch->retire) —
	// each within its RelError of the exact quantile over the stream the
	// sketch was fed: each merged shard's per-PC mean, sample-weighted.
	Latencies []quantileSummary

	byPC map[uint64]*HotView
}

// HotView is one published hot-PC row: the sketch estimate with its
// error bound, plus an exact copy of the accumulator taken at publish
// time. Est >= Acc.Samples always (the sketch never
// undercounts); Est - MaxErr is a guaranteed lower bound on the true
// count.
type HotView struct {
	// Acc is a copy of the PC's accumulator as of the view epoch.
	// Read-only: shared by every reader of the view.
	Acc PCAccum
	// Est is the sketch's count estimate and MaxErr its worst-case
	// overcount (SSEntry semantics).
	Est    uint64
	MaxErr uint64
}

// Estimate is the loss-corrected estimate of an event's occurrences from
// its k samples (§5): estimateCount(k, RecordS) * LossCorr, associated
// as in DB.EstimatedCount, so the two give the same bits.
func (v *View) Estimate(k uint64) float64 { return estimateCount(k, v.RecordS) * v.LossCorr }

// Get returns the published row for pc, or nil when pc is not among the
// view's top-K. The returned row is shared and read-only.
func (v *View) Get(pc uint64) *HotView {
	if v == nil {
		return nil
	}
	return v.byPC[pc]
}

// ExactTop returns the n hottest accumulators in DB.HotPCs order
// (samples descending, ties toward the lower PC; n <= 0 means all) when
// the view can certify that they ARE the database's exact top n as of
// RowsEpoch, and ok=false when it cannot. O(K log n), no lock.
//
// The certificate: rows hold exact accumulator copies of every tracked
// PC, and space-saving guarantees any untracked PC a true count of at
// most the sketch floor. So if the sketch never filled (every PC is
// tracked), or the n-th largest exact count among the rows is strictly
// above Floor, no untracked PC can enter or tie into the top n. Floor is
// read at Epoch and only grows, so it also covers the older rows. A flat
// distribution (n-th row at or below the floor) or n > K refuses, and
// the caller falls back to the scan (SafeDB.HotPCsExact).
//
// The returned accumulators are the view's own rows: shared, read-only.
func (v *View) ExactTop(n int) (top []*PCAccum, ok bool) {
	complete := len(v.TopK) < v.TopKCap
	if n <= 0 || n > len(v.TopK) {
		if !complete {
			return nil, false
		}
		n = len(v.TopK)
	}
	sel := topAccums{n: n, heap: make(coldestFirst, 0, n)}
	for i := range v.TopK {
		sel.offer(&v.TopK[i].Acc)
	}
	top = sel.sorted()
	if !complete && top[n-1].Samples <= v.Floor {
		return nil, false
	}
	return top, true
}

// SketchStats is the observability rollup for the sketch layer, served
// under "sketch" in /v1/stats.
type SketchStats struct {
	// Epoch is the current view epoch; Publishes counts full (row-
	// rebuilding) publications.
	Epoch     uint64 `json:"epoch"`
	Publishes uint64 `json:"publishes"`
	// TopK is the sketch capacity, TrackedPCs how many PCs it currently
	// holds, SketchN the total weight observed, and Floor the current
	// max-overcount bound.
	TopK       int    `json:"top_k"`
	TrackedPCs int    `json:"tracked_pcs"`
	SketchN    uint64 `json:"sketch_n"`
	Floor      uint64 `json:"floor"`
	// Window geometry: bucket count, bucket duration, and horizon.
	WindowBuckets   int   `json:"window_buckets"`
	WindowBucketMS  int64 `json:"window_bucket_ms"`
	WindowHorizonMS int64 `json:"window_horizon_ms"`
	// Latencies are the published percentile summaries (one per latency
	// kind plus "inprogress"), straight from the current view.
	Latencies []quantileSummary `json:"latencies"`
}

// SketchConfig parameterizes SafeDB's streaming summaries. Zero values
// get usable defaults.
type SketchConfig struct {
	// TopK is the space-saving sketch capacity (default 512): hot-PC
	// queries for n <= TopK are served O(K) from the published view.
	TopK int
	// WindowBuckets and BucketDur define the windowed ring (defaults 60
	// buckets of 1s: a one-minute horizon at second granularity).
	WindowBuckets int
	BucketDur     time.Duration

	now func() time.Time // test seam; nil = time.Now
}

func (c *SketchConfig) normalize() {
	if c.TopK <= 0 {
		c.TopK = 512
	}
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = 60
	}
	if c.BucketDur <= 0 {
		c.BucketDur = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}
