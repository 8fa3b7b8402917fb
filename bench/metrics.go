package main

import (
	"math"
	"sort"
)

// metricDef is one row of the ledger: the name a later issue cites, its
// unit, which direction is better and — for end-to-end metrics — the
// share of the parent's median it may worsen by before a change counts
// as a regression. Exact metrics are simulated or counted quantities
// that repeat bit-for-bit for a seed; -compare requires them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
	Exact  bool
}

// endToEnd is the vocabulary every workload prints with -trace 0. The
// driver's contract wants every workload to report every end-to-end
// metric, so the names are generic and bench/README.md maps each
// (metric, workload) pair onto the operation it measures.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// allKernels is the simulator suite in the order the two sim workloads
// split it: the six low-IPC kernels, then the five high-IPC ones.
var (
	stallKernels = []string{"li", "compress", "vortex", "gcc", "swim", "perl"}
	ilpKernels   = []string{"go", "eqntott", "m88ksim", "ijpeg", "povray"}
)

// perLayer is what -trace 1 prints: one layer's time, count or ratio
// taken from outside the layer (spans around its public calls, or its
// own stats accessor). A workload that never enters a layer reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	exact := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
	}
	defs := []metricDef{lower("sim.step_ns", "ns")}
	for _, k := range append(append([]string{}, stallKernels...), ilpKernels...) {
		defs = append(defs, lower("cpu."+k+".ns_per_inst", "ns"), exact("cpu."+k+".cycles", "count"))
	}
	defs = append(defs,
		lower("cpu.alloc_mb_per_minst", "MB"),
		lower("cpu.allocs_per_minst", "count"),
		// Modelled-design statistics: a change here is a model change,
		// never a speed-up.
		exact("cpu.mispredicts", "count"),
		exact("cpu.replay_traps", "count"),
		exact("cpu.issued_wasted_share", "%"),
		exact("cpu.empty_fetch_share", "%"),
		exact("mem.icache_miss_rate", "%"),
		exact("mem.dcache_miss_rate", "%"),
		exact("mem.l2_miss_rate", "%"),
		exact("bpred.mispredict_rate", "%"),
		lower("mem.data_ns", "ns"),
		lower("mem.fetch_ns", "ns"),
		lower("bpred.cond_ns", "ns"),
		lower("core.onfetch_ns", "ns"),
		metricDef{Name: "core.samples", Unit: "count", Better: "higher", Exact: true},
		exact("core.lost", "count"),
		exact("core.useless_share", "%"),
		lower("profile.add_ns", "ns"),
		exact("profile.lat_err_pct", "%"),
		// The paper's two claims, exact for a seed (see README: why they
		// are not end-to-end metrics here).
		exact("profile.est_err_pct", "%"),
		exact("cpu.dilation_pct", "%"),
		// Submit ladder.
		lower("ingest.encode_us", "us"),
		lower("profile.load_us", "us"),
		lower("ingest.envelope_us", "us"),
		lower("ingest.admit_us", "us"),
		lower("wal.stage_us", "us"),
		lower("wal.sync_wait_us", "us"),
		lower("ingest.submit_us", "us"),
		lower("server.rtt_us", "us"),
		lower("server.submit_self_us", "us"),
		metricDef{Name: "wal.appends_per_sync", Unit: "count", Better: "higher"},
		lower("wal.bytes_per_submit", "B"),
		lower("ingest.refusals_per_submit", "count"),
		exact("ingest.duplicates", "count"),
		lower("ingest.alloc_kb_per_submit", "KB"),
		lower("profile.dbmerge_us", "us"),
		lower("profile.publish_us", "us"),
		lower("profile.view_publishes", "count"),
		lower("ingest.checkpoint_ms", "ms"),
		lower("ingest.recover_ms", "ms"),
		// Tier.
		lower("cluster.owner_ns", "ns"),
		lower("cluster.hop_us", "us"),
		lower("cluster.witness_us", "us"),
		lower("cluster.fanout_us", "us"),
		lower("cluster.submit_retries", "count"),
		lower("cluster.failovers", "count"),
		lower("cluster.hedges", "count"),
		lower("cluster.witness_failed", "count"),
		lower("cluster.placement_skew", "ratio"),
		// Query path.
		lower("profile.hot_us", "us"),
		lower("profile.window_us", "us"),
		lower("profile.estimate_us", "us"),
		lower("profile.exact_ms", "ms"),
		lower("server.query_self_us", "us"),
		// Generator health.
		lower("traffic.schedule_ms", "ms"),
		lower("traffic.late_p99_ms", "ms"),
		lower("bench.trace_overhead_pct", "%"),
		// The latency distribution of the workload's operation and the
		// per-class latencies it folds together, from the traced end-to-end
		// pass (README: why no latency is a bounded end-to-end metric).
		lower("bench.op_p50_ms", "ms"),
		lower("bench.op_p90_ms", "ms"),
		lower("bench.op_p99_ms", "ms"),
		lower("bench.ack_p50_ms", "ms"),
		lower("bench.ack_p99_ms", "ms"),
		lower("bench.hot_p50_ms", "ms"),
		lower("bench.hot_p99_ms", "ms"),
		lower("bench.window_p50_ms", "ms"),
		lower("bench.exact_p50_ms", "ms"),
		lower("bench.failed_share", "ratio"),
	)
	return defs
}

// metricValue is one reported number; the unit travels with it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is what the acceptance check uses for spreads.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
