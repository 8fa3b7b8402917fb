package main

// Query-path benchmark (-queries): scan vs published-state hot-PC
// serving on a large aggregate while the merge loop is under flood — the
// workload the view-backed read paths exist for. The headline number is
// the speedup of the published-view sketch query over the read-locked
// scan (SafeDB.HotPCsExact, which stays the baseline every ratio is
// taken against); the BENCH_query.json gates require that speedup and
// the certified-exact one (View.ExactTop over the same scan) to stay ≥
// MinQuerySpeedup, the sketch's top-N to agree with the scan's and the
// certified top-N to equal it once the flood pauses, and a steady poll
// of the windowed query (the ring's kept merge) to cost at most
// MaxCachedWindowRatio plain sketch queries. Every gate is a ratio of
// two measurements taken on the same machine in the same run, so none
// needs calibration scaling.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"profileme/internal/core"
	"profileme/internal/profile"
)

const (
	// queryDBPCs is the distinct-PC population of the benchmark
	// aggregate: large enough that the exact path's O(DB log n) scan is
	// the dominant cost (the ISSUE/acceptance target: a 1M-PC DB).
	queryDBPCs = 1 << 20
	// queryHotSet is the size of the skewed-tail population that gets
	// extra samples so the aggregate has realistic mass, and queryCliff
	// PCs get cliffWeight samples each — far above the sketch's worst-case
	// floor of N/K (~2.4k here), so the true top-N is unambiguous even
	// under the sketch's error bound and the overlap gate is not flaky.
	queryHotSet = 1024
	queryCliff  = queryTopN
	cliffWeight = 20000
	// queryTopN is the n of the benchmarked hot-PC query.
	queryTopN = 10
	// MinQuerySpeedup is the hard floor -check enforces on
	// sketchQPS/exactQPS and on certifiedQPS/exactQPS.
	MinQuerySpeedup = 10.0
	// MaxCachedWindowRatio is the ceiling -check enforces on the
	// steady-state windowed query's ns/op over the plain sketch query's,
	// both measured with the flood paused.
	MaxCachedWindowRatio = 10.0
	// minQueryOverlap is how many of the sketch's top-N must also be in
	// the exact top-N (flood paused) for the sketch to count as correct.
	minQueryOverlap = 9
)

// QueryMeasurement is one serving path's throughput under merge flood.
type QueryMeasurement struct {
	Name    string  `json:"name"`
	Queries int     `json:"queries"`
	NsPerOp float64 `json:"ns_per_op"`
	QPS     float64 `json:"qps"`
}

// QueryBaseline is the BENCH_query.json schema.
type QueryBaseline struct {
	Notes     string `json:"notes"`
	GoVersion string `json:"go_version"`
	DBPCs     int    `json:"db_pcs"`
	TopN      int    `json:"top_n"`
	// Exact is the read-locked scan (SafeDB.HotPCsExact), Certified the
	// same exact answer certified from the published view
	// (View.ExactTop), Sketch the lock-free published-view path
	// (SafeDB.HotPCs), Window the ring-merged "last 30s" path (mostly
	// re-merging: every flood merge invalidates the ring's kept merge) —
	// all measured with a concurrent merge flood running.
	Exact     QueryMeasurement `json:"exact"`
	Certified QueryMeasurement `json:"certified"`
	Sketch    QueryMeasurement `json:"sketch"`
	Window    QueryMeasurement `json:"window"`
	// WindowCached and SketchQuiet are the steady-state pair, measured
	// with the flood paused: a windowed poll answered from the ring's
	// kept merge, beside the plain sketch query under the same quiet.
	WindowCached QueryMeasurement `json:"window_cached"`
	SketchQuiet  QueryMeasurement `json:"sketch_quiet"`
	// MergesDuringRun counts flood merges completed while measuring —
	// proof the writer was actually contending.
	MergesDuringRun uint64 `json:"merges_during_run"`
	// Speedup = Sketch.QPS / Exact.QPS; the -check gate requires
	// MinSpeedup ≤ Speedup, and MinSpeedup is recorded for the reader.
	Speedup    float64 `json:"speedup"`
	MinSpeedup float64 `json:"min_speedup"`
	// CertifiedSpeedup = Certified.QPS / Exact.QPS, gated like Speedup.
	CertifiedSpeedup float64 `json:"certified_speedup"`
	// CachedWindowRatio = WindowCached.NsPerOp / SketchQuiet.NsPerOp; the
	// -check gate requires it ≤ MaxCachedWindowRatio.
	CachedWindowRatio    float64 `json:"cached_window_ratio"`
	MaxCachedWindowRatio float64 `json:"max_cached_window_ratio"`
	// Overlap is |sketch top-N ∩ exact top-N| with the flood paused;
	// CertifiedEqual is whether the certified top-N then equals the
	// exact top-N row for row.
	Overlap        int  `json:"overlap"`
	CertifiedEqual bool `json:"certified_equal"`
}

// queryRecord builds one minimal valid retired record for pc.
func queryRecord(pc uint64, lat int64) core.Record {
	r := core.Record{PC: pc, LoadComplete: -1, Events: core.EvRetired}
	for i := range r.StageCycle {
		r.StageCycle[i] = -1
	}
	r.StageCycle[core.StageFetch] = 0
	r.StageCycle[core.StageRetire] = lat
	return r
}

// buildQueryDB constructs the 1M-PC aggregate: every PC sampled once, a
// zipf-ish warm tail on top, and a cliff of queryCliff heavy hitters
// whose counts dwarf the sketch floor.
func buildQueryDB() *profile.DB {
	db := profile.NewDB(512, 0, 4)
	for i := 0; i < queryDBPCs; i++ {
		pc := 0x10000000 + 4*uint64(i)
		db.Add(core.Sample{First: queryRecord(pc, int64(5+i%40))})
	}
	// Warm tail: rank r gets ~ 2*queryHotSet/(r+1) extra samples. These
	// stay below the sketch floor — they are mass, not answers.
	for r := 0; r < queryHotSet; r++ {
		pc := 0x10000000 + 4*uint64(r*7919%queryDBPCs)
		extra := 2*queryHotSet/(r+1) + 1
		for j := 0; j < extra; j++ {
			db.Add(core.Sample{First: queryRecord(pc, int64(5+j%40))})
		}
	}
	// The cliff: the PCs every hot-PC query should return.
	for r := 0; r < queryCliff; r++ {
		pc := 0x10000000 + 4*uint64(r*99991%queryDBPCs)
		for j := 0; j < cliffWeight; j++ {
			db.Add(core.Sample{First: queryRecord(pc, int64(5+j%40))})
		}
	}
	return db
}

// buildFloodShard builds one mergeable shard touching a slice of the
// hot set plus some cold PCs — the merge loop's steady diet.
func buildFloodShard(seed int) *profile.DB {
	db := profile.NewDB(512, 0, 4)
	for i := 0; i < 2048; i++ {
		pc := 0x10000000 + 4*uint64((seed*2048+i*31)%queryDBPCs)
		db.Add(core.Sample{First: queryRecord(pc, int64(5+i%40))})
	}
	return db
}

// measureQueries runs fn in a closed loop for at least d (and at least
// minIters iterations), returning the throughput.
func measureQueries(name string, d time.Duration, minIters int, fn func()) QueryMeasurement {
	start := time.Now()
	n := 0
	for time.Since(start) < d || n < minIters {
		fn()
		n++
	}
	elapsed := time.Since(start)
	return QueryMeasurement{
		Name:    name,
		Queries: n,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(n),
		QPS:     float64(n) / elapsed.Seconds(),
	}
}

// runQueryBench measures the serving paths under flood, the steady-state
// pair with the flood paused, and applies -update/-check to
// BENCH_query.json.
func runQueryBench(file string, update, check bool, measureFor time.Duration) int {
	fmt.Printf("building %d-PC aggregate...\n", queryDBPCs)
	start := time.Now()
	agg := profile.NewSafeDBWith(buildQueryDB(), profile.SketchConfig{})
	fmt.Printf("built in %s\n", time.Since(start).Round(time.Millisecond))

	// Merge flood: one writer looping over a pool of prebuilt shards —
	// the single-merge-loop shape the pmsimd service has.
	shards := make([]*profile.DB, 8)
	for i := range shards {
		shards[i] = buildFloodShard(i)
	}
	var (
		merges   atomic.Uint64
		stop     atomic.Bool
		floodWG  sync.WaitGroup
		mergeErr atomic.Value
	)
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		for i := 0; !stop.Load(); i++ {
			if err := agg.Merge(shards[i%len(shards)]); err != nil {
				mergeErr.Store(err)
				return
			}
			merges.Add(1)
		}
	}()

	exact := measureQueries("exact", measureFor, 3, func() { agg.HotPCsExact(queryTopN) })
	refusals := 0
	certified := measureQueries("certified", measureFor, 1000, func() {
		if _, ok := agg.View().ExactTop(queryTopN); !ok {
			refusals++
		}
	})
	sketch := measureQueries("sketch", measureFor, 1000, func() { agg.HotPCs(queryTopN) })
	window := measureQueries("window", measureFor, 10, func() { agg.WindowHotPCs(30*time.Second, queryTopN) })
	floodMerges := merges.Load()

	stop.Store(true)
	floodWG.Wait()
	if err, _ := mergeErr.Load().(error); err != nil {
		fmt.Fprintln(os.Stderr, "pmbench: merge flood:", err)
		return 1
	}

	if refusals > 0 {
		// A refused query did no selection work worth timing, and the
		// cliff is built to be certifiable: treat it as a broken run.
		fmt.Fprintf(os.Stderr, "pmbench: view refused to certify %d of %d top-%d queries\n",
			refusals, certified.Queries, queryTopN)
		return 1
	}

	// Flood paused: a steady windowed poll reuses the ring's kept merge.
	agg.WindowHotPCs(30*time.Second, queryTopN)
	windowCached := measureQueries("window-cached", measureFor/4, 1000, func() { agg.WindowHotPCs(30*time.Second, queryTopN) })
	sketchQuiet := measureQueries("sketch-quiet", measureFor/4, 1000, func() { agg.HotPCs(queryTopN) })

	// And the sketch's top-N must agree with the exact answer, the
	// certified one equal it.
	exactTop := agg.HotPCsExact(queryTopN)
	sketchTop := agg.HotPCs(queryTopN)
	inExact := make(map[uint64]bool, len(exactTop))
	for _, a := range exactTop {
		inExact[a.PC] = true
	}
	overlap := 0
	for _, a := range sketchTop {
		if inExact[a.PC] {
			overlap++
		}
	}

	certTop, ok := agg.View().ExactTop(queryTopN)
	certifiedEqual := ok && len(certTop) == len(exactTop)
	for i := 0; certifiedEqual && i < len(certTop); i++ {
		certifiedEqual = certTop[i].PC == exactTop[i].PC && certTop[i].Samples == exactTop[i].Samples
	}

	speedup := sketch.QPS / exact.QPS
	certSpeedup := certified.QPS / exact.QPS
	cachedRatio := windowCached.NsPerOp / sketchQuiet.NsPerOp
	for _, m := range []QueryMeasurement{exact, certified, sketch, window, windowCached, sketchQuiet} {
		fmt.Printf("%-13s %10d queries  %12.0f ns/op  %12.1f qps\n", m.Name, m.Queries, m.NsPerOp, m.QPS)
	}
	fmt.Printf("sketch/scan %.1fx, certified/scan %.1fx (gates ≥ %.0fx), cached window %.2fx a sketch query (gate ≤ %.0fx)\n",
		speedup, certSpeedup, MinQuerySpeedup, cachedRatio, MaxCachedWindowRatio)
	fmt.Printf("top-%d overlap %d/%d, certified equals exact: %v, %d merges during run\n",
		queryTopN, overlap, queryTopN, certifiedEqual, floodMerges)

	switch {
	case update:
		b := &QueryBaseline{
			Notes: "Query-path throughput: published-state serving (sketch view, " +
				"certified-exact view, windowed ring) vs the read-locked scan on a 1M-PC " +
				"aggregate with a concurrent merge flood, plus the steady-state windowed " +
				"poll with the flood paused. The check gates are ratios (machine-" +
				"independent: both sides measured in the same run): sketch/scan and " +
				"certified/scan speedups, cached-window/sketch cost, top-N agreement " +
				"and certified == exact once the flood pauses. Regenerate with " +
				"`go run ./cmd/pmbench -queries -update`.",
			GoVersion:            runtime.Version(),
			DBPCs:                queryDBPCs,
			TopN:                 queryTopN,
			Exact:                exact,
			Certified:            certified,
			Sketch:               sketch,
			Window:               window,
			WindowCached:         windowCached,
			SketchQuiet:          sketchQuiet,
			MergesDuringRun:      floodMerges,
			Speedup:              speedup,
			MinSpeedup:           MinQuerySpeedup,
			CertifiedSpeedup:     certSpeedup,
			CachedWindowRatio:    cachedRatio,
			MaxCachedWindowRatio: MaxCachedWindowRatio,
			Overlap:              overlap,
			CertifiedEqual:       certifiedEqual,
		}
		if err := writeJSONFile(file, b); err != nil {
			fmt.Fprintln(os.Stderr, "pmbench:", err)
			return 1
		}
		fmt.Println("wrote", file)
	case check:
		if _, err := os.Stat(file); err != nil {
			fmt.Fprintln(os.Stderr, "pmbench:", err)
			return 1
		}
		if speedup < MinQuerySpeedup {
			fmt.Fprintf(os.Stderr, "pmbench: REGRESSION: sketch/exact speedup %.1fx below the %.0fx gate\n",
				speedup, MinQuerySpeedup)
			return 1
		}
		if overlap < minQueryOverlap {
			fmt.Fprintf(os.Stderr, "pmbench: REGRESSION: sketch top-%d overlap %d/%d below %d (sketch no longer agrees with exact)\n",
				queryTopN, overlap, queryTopN, minQueryOverlap)
			return 1
		}
		if certSpeedup < MinQuerySpeedup {
			fmt.Fprintf(os.Stderr, "pmbench: REGRESSION: certified/exact speedup %.1fx below the %.0fx gate\n",
				certSpeedup, MinQuerySpeedup)
			return 1
		}
		if !certifiedEqual {
			fmt.Fprintf(os.Stderr, "pmbench: REGRESSION: certified top-%d differs from the exact scan\n", queryTopN)
			return 1
		}
		if cachedRatio > MaxCachedWindowRatio {
			fmt.Fprintf(os.Stderr, "pmbench: REGRESSION: steady-state window query costs %.1fx a sketch query, above the %.0fx gate (merge no longer reused?)\n",
				cachedRatio, MaxCachedWindowRatio)
			return 1
		}
		fmt.Printf("ok: sketch %.1fx and certified %.1fx ≥ %.0fx, cached window %.2fx ≤ %.0fx, overlap %d/%d\n",
			speedup, certSpeedup, MinQuerySpeedup, cachedRatio, MaxCachedWindowRatio, overlap, queryTopN)
	}
	return 0
}
