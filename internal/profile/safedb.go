package profile

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SafeDB wraps a DB with an RWMutex for writers plus an epoch-based
// copy-on-write read path: every write publishes an immutable View
// (counters, top-K sketch rows, latency quantile summaries) that readers
// load with a single atomic pointer read. The hot query path —
// /v1/hotpcs, /v1/stats, windowed "last N seconds" queries — therefore
// takes NO lock that contends with the merge loop, and an exact top-N
// is lock-free too whenever the view can certify it (View.ExactTop);
// only the scan fallbacks (HotPCsExact, Get, Save, per-PC
// estimators) still take the read lock and pay the copy cost.
//
// It is the concurrency boundary the pmsimd service builds on: a plain
// DB stays single-owner (see the DB doc comment), and the moment two
// goroutines need the same database, it goes behind a SafeDB.
//
// Copy-vs-alias semantics: reader methods never leak interior pointers
// into the live database. Exact-path results (Get, HotPCsExact) are
// returned by value (an accumulator holds no pointer, so a copy shares
// nothing); View() returns a shared IMMUTABLE snapshot that callers must
// treat as read-only but may retain forever; HotPCs copies rows out of
// the view before returning them, so its results are safe to mutate.
type SafeDB struct {
	mu sync.RWMutex
	db *DB

	cfg    SketchConfig
	topk   *spaceSaving
	window *windowRing
	lat    [NumLatencyKinds]*quantileSketch
	inprog *quantileSketch

	epoch     uint64
	publishes atomic.Uint64 // read lock-free by SketchStats
	// saveOrder is Save's slots in ascending PC order, kept between
	// calls while the database's slot order is not ascending (atomic:
	// Saves share the read lock).
	saveOrder atomic.Pointer[[]int32]
	view      atomic.Pointer[View]
}

// NewSafeDBWith wraps db with the given sketch parameters (zero values
// take their defaults), seeding the top-K and quantile sketches from db's
// existing contents (one O(DB) pass — the restart-from-checkpoint path)
// and publishing the initial view. The caller hands over ownership: after
// this call, all access to db goes through the wrapper. The windowed ring
// starts empty: historical samples carry no arrival timestamps.
func NewSafeDBWith(db *DB, cfg SketchConfig) *SafeDB {
	cfg.normalize()
	s := &SafeDB{
		db:     db,
		cfg:    cfg,
		topk:   newSpaceSaving(cfg.TopK),
		window: newWindowRing(cfg.WindowBuckets, cfg.BucketDur, cfg.TopK),
		inprog: newQuantileSketch(),
	}
	for i := range s.lat {
		s.lat[i] = newQuantileSketch()
	}
	db.eachAscending(func(_ int32, a *PCAccum) { s.sketch(a) })
	s.mu.Lock()
	s.publishLocked(true)
	s.mu.Unlock()
	return s
}

// sketch folds one accumulator into the top-K and quantile sketches: its
// samples, and its mean latencies weighted by the samples that carried
// them. Caller holds mu (write) or owns s outright.
func (s *SafeDB) sketch(a *PCAccum) {
	s.topk.add(a.PC, a.Samples)
	for i := 0; i < NumLatencyKinds; i++ {
		if a.LatCount[i] > 0 {
			s.lat[i].addN(float64(a.LatSum[i])/float64(a.LatCount[i]), a.LatCount[i])
		}
	}
	if a.InProgressCount > 0 {
		s.inprog.addN(float64(a.InProgressSum)/float64(a.InProgressCount), a.InProgressCount)
	}
}

// View returns the latest published snapshot: one atomic load, no lock,
// no copies. The result is immutable and shared — treat it as read-only
// (see the View doc). It is never nil after construction.
func (s *SafeDB) View() *View { return s.view.Load() }

// publishLocked builds and installs a new view. Caller holds mu (write).
// rows=false is the cheap counter-only republish: the previous view's
// row and latency slices are shared (they are immutable), so it is O(1).
// rows=true rebuilds the top-K rows (O(K log K) plus K accumulator
// copies) and the latency summaries.
func (s *SafeDB) publishLocked(rows bool) {
	s.epoch++
	v := &View{
		Epoch: s.epoch,
		When:  s.cfg.now(),
		Counters: Counters{
			Samples:         s.db.Samples(),
			Pairs:           s.db.Pairs(),
			Lost:            s.db.Lost(),
			CorruptRejected: s.db.CorruptRejected(),
			LossRate:        s.db.LossRate(),
		},
		RecordS:  s.db.recordInterval(),
		LossCorr: s.db.lossCorrection(),
		TopKCap:  s.cfg.TopK,
		SketchN:  s.topk.n,
		Floor:    s.topk.minCount(),
	}
	if prev := s.view.Load(); !rows && prev != nil {
		v.RowsEpoch = prev.RowsEpoch
		v.TopK = prev.TopK
		v.Latencies = prev.Latencies
		v.byPC = prev.byPC
	} else {
		s.publishes.Add(1)
		v.RowsEpoch = s.epoch
		items := s.topk.items()
		v.TopK = make([]HotView, 0, len(items))
		v.byPC = make(map[uint64]*HotView, len(items))
		for _, e := range items {
			hv := HotView{Est: e.Count, MaxErr: e.Err}
			if a := s.db.Get(e.PC); a != nil {
				hv.Acc = *a
			} else {
				hv.Acc = PCAccum{PC: e.PC}
			}
			v.TopK = append(v.TopK, hv)
		}
		for i := range v.TopK {
			v.byPC[v.TopK[i].Acc.PC] = &v.TopK[i]
		}
		v.Latencies = make([]quantileSummary, 0, NumLatencyKinds+1)
		for i := 0; i < NumLatencyKinds; i++ {
			v.Latencies = append(v.Latencies, s.lat[i].summarize(LatencyKindName(i)))
		}
		v.Latencies = append(v.Latencies, s.inprog.summarize("inprogress"))
	}
	s.view.Store(v)
}

// SamplingConfig returns the wrapped database's sampling configuration —
// what an incoming shard must match to be mergeable.
func (s *SafeDB) SamplingConfig() (interval float64, window, width int, tNear int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.S, s.db.W, s.db.C, s.db.TNear
}

// Merge folds a shard database into the aggregate (write lock) and
// publishes a fresh view with rebuilt rows. After the configuration
// screen, one walk over the shard folds each accumulator into the
// database, the window ring's head bucket and the top-K and quantile
// sketches. The shard must not be accessed concurrently by anyone else;
// a successful merge consumes it: its counts belong to the aggregate, a
// decoded shard's rows go back to LoadDB's pool, and only its totals
// (Samples, Lost) may still be read.
func (s *SafeDB) Merge(other *DB) error {
	now := s.cfg.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.db.mergeable(other); err != nil {
		return err
	}
	head := s.window.lockHead(now)
	s.db.mergeWalk(other, func(delta *PCAccum) {
		head.add(delta.PC, delta.Samples)
		s.sketch(delta)
	})
	s.window.mu.Unlock()
	s.publishLocked(true)
	other.recycle()
	return nil
}

// RecordLoss notes n captured-but-never-delivered samples (write lock)
// and republishes counters.
func (s *SafeDB) RecordLoss(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.RecordLoss(n)
	s.publishLocked(false)
}

// ReverseLoss retracts n samples previously recorded as loss (write
// lock) — see DB.reverseLoss — and republishes counters.
func (s *SafeDB) ReverseLoss(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.reverseLoss(n)
	s.publishLocked(false)
}

// Counters is the cheap whole-aggregate rollup: plain totals, no per-PC
// state. It is a value type — snapshots never alias live state. Its
// JSON names are /v1/stats' aggregate rollup, which serves neither
// Pairs nor CorruptRejected.
type Counters struct {
	Samples         uint64  `json:"samples"`
	Pairs           uint64  `json:"-"`
	Lost            uint64  `json:"lost"`
	CorruptRejected uint64  `json:"-"`
	LossRate        float64 `json:"loss_rate"`
}

// CountersSnapshot returns every scalar counter from the published view
// — one atomic load, no lock, no copies. This is the read path for
// /v1/stats and readiness polls, which must never contend with merges.
// The counters are exact as of the view epoch; every write republishes
// them, so a snapshot taken after a write completes reflects that write.
func (s *SafeDB) CountersSnapshot() Counters { return s.View().Counters }

// SketchStats reports the sketch layer's health for /v1/stats as of v,
// a view this SafeDB published: a caller that also serves v.Counters
// describes one epoch in both.
func (s *SafeDB) SketchStats(v *View) SketchStats {
	return SketchStats{
		Epoch:           v.Epoch,
		Publishes:       s.publishes.Load(),
		TopK:            v.TopKCap,
		TrackedPCs:      len(v.TopK),
		SketchN:         v.SketchN,
		Floor:           v.Floor,
		WindowBuckets:   s.cfg.WindowBuckets,
		WindowBucketMS:  s.window.bucketDur.Milliseconds(),
		WindowHorizonMS: s.window.horizon().Milliseconds(),
		Latencies:       v.Latencies,
	}
}

// EstimatedCount estimates how many times pc was fetched, loss-corrected
// (read lock: a per-PC lookup on the live database).
func (s *SafeDB) EstimatedCount(pc uint64) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.EstimatedCount(pc)
}

// Get returns a copy of the accumulator for pc and the view of the
// same instant, from one read lock: every write republishes the view
// under the write lock, so the view loaded under the read lock is the
// live database's, and an estimate built from the copy and the view's
// S and LossCorr is one instant's. ok is false when the PC has never
// been sampled. The copy shares nothing with the live database and is
// safe to retain and mutate.
func (s *SafeDB) Get(pc uint64) (PCAccum, *View, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a := s.db.Get(pc)
	if a == nil {
		return PCAccum{}, nil, false
	}
	return *a, s.View(), true
}

// HotPCs returns the n hottest accumulators, descending by sample count.
// For n within the sketch capacity it serves O(n) from the published
// view — sketch-backed: membership and order are approximate with the
// space-saving bounds (exact whenever the aggregate has at most K
// distinct PCs), and contents are exact as of the view epoch. Larger n
// falls back to HotPCsExact. Results are copies, safe to mutate.
func (s *SafeDB) HotPCs(n int) []PCAccum {
	if n > 0 && n <= s.cfg.TopK {
		v := s.View()
		rows := v.TopK
		if len(rows) > n {
			rows = rows[:n]
		}
		out := make([]PCAccum, len(rows))
		for i := range rows {
			out[i] = rows[i].Acc
		}
		return out
	}
	rows, _ := s.HotPCsExact(n)
	return rows
}

// HotPCsExact returns copies of the n hottest accumulators from the
// live database, with the view of the same instant (see Get): the scan
// fallback, for when View.ExactTop cannot certify an exact answer from
// published state. It takes the read lock and pays an O(DB log n)
// selection over every accumulator plus n copies — the cost the
// view-served paths exist to avoid.
func (s *SafeDB) HotPCsExact(n int) ([]PCAccum, *View) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	accs := s.db.HotPCs(n)
	out := make([]PCAccum, len(accs))
	for i, a := range accs {
		out[i] = *a
	}
	return out, s.View()
}

// WindowHotPCs answers "hot PCs in the last `window`" from the ring of
// time-bucketed sketches: never O(DB), and no SafeDB lock (the ring has
// its own bucket-granular lock with O(log K) writer hold times). The
// ring reuses its last merged row set until a write or a bucket boundary
// changes the answer, so a steady poll costs O(buckets + n) and only the
// first query after a change pays the O(K * buckets) merge. Rows are
// sketch estimates only — per-bucket rings keep no accumulators.
func (s *SafeDB) WindowHotPCs(window time.Duration, n int) WindowResult {
	return s.window.query(s.cfg.now(), window, n)
}

// Save writes the aggregate as a versioned, checksummed envelope (read
// lock: serialization does not mutate the database). Sketch state is
// derived and NOT persisted; a reload reseeds it (NewSafeDBWith).
//
// A database whose slots are in ascending PC order (a decoded
// checkpoint that gained no PC out of order) is saved in slot order.
// Otherwise repeated saves of a large aggregate (the collector's
// checkpoints) keep the sorted slot list between them: a DB only ever
// gains PCs and a slot never changes, so a list as long as the database
// is still the right list.
func (s *SafeDB) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.db.unsorted {
		return s.db.save(w, nil)
	}
	order := s.saveOrder.Load()
	if order == nil || len(*order) != s.db.n {
		fresh := s.db.ascendingSlots()
		order = &fresh
		s.saveOrder.Store(order)
	}
	return s.db.save(w, *order)
}
