// Command bench is the repository's performance ledger: six named
// workloads that drive the simulator half (sim/cpu/mem/bpred/core/profile)
// and the collector half (ingest/wal/server/cluster/traffic) through their
// public entry points, print every metric by name with its unit, and check
// the outputs with exact oracles. BENCHMARK.json at the repository root is
// the contract; README.md in this directory explains the choices.
//
//	bash bench/run.sh                                  # all six workloads, untraced
//	bash bench/run.sh --workload ingest_wide --seed 7  # one workload
//	bash bench/run.sh --workload sim_ilp --trace 1     # per-layer numbers + bench/out/trace.json
//	bash bench/run.sh -compare a.jsonl b.jsonl         # before/after verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a workload sees of one run: the seed every random choice
// derives from, the measuring budget, the scratch directory, and the
// tracer (nil on the untraced run).
type env struct {
	seed    uint64
	seconds float64
	smoke   bool
	dir     string // scratch: WAL, checkpoint and working directories
	outDir  string // where the trace file goes
	traceAs string // its name: trace.json, or trace.<workload>.json when several workloads run
	tr      *tracer
	out     io.Writer
}

// derive returns an independent stream seed for (label, idx): one -seed
// argument fixes data layouts, sampling seeds, the traffic spec seed, the
// wide-shard generator and the duplicate positions.
func (e *env) derive(label string, idx uint64) uint64 {
	z := e.seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		z = (z ^ uint64(label[i])) * 0x100000001b3
	}
	z ^= (idx + 1) * 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // seed 0 selects canonical layouts in internal/workload
	}
	return z
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// outcome is what one measured phase hands back: the metrics by name,
// and detail — numbers the report prints for the reader (per-round values,
// per-class latencies, unbounded tails) that are not part of the result.
type outcome struct {
	attempted, failed int64
	oracleFailures    []string
	metrics           map[string]float64
	detail            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]float64{}}
}

// check runs one output oracle; a failed oracle counts as a failed
// operation and makes the run incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.oracleFailures = append(o.oracleFailures, fmt.Sprintf(format, args...))
	}
}

// harness is one set-up instance of a workload.
type harness interface {
	// measure is the untraced end-to-end phase.
	measure(e *env) (*outcome, error)
	// layers is the traced phase: spans around each layer's public calls.
	layers(e *env) (*outcome, error)
	close()
}

type workloadDef struct {
	name  string
	why   string
	setup func(e *env) (harness, error)
}

var workloads = []workloadDef{
	{"sim_stall", "six low-IPC kernels at the pmsim defaults: host time tracks simulated cycles, so stall-skipping or mem work shows here and not in sim_ilp", setupSimStall},
	{"sim_ilp", "five high-IPC kernels with paired sampling S=40 W=80: host time tracks instructions and the sampling path runs ~25x denser", setupSimILP},
	{"ingest_narrow", "closed-loop durable submits of real ~3 KB simulator shards to one runbook instance: WAL group commit, fsync and HTTP dominate", setupIngestNarrow},
	{"ingest_wide", "closed-loop submits of synthetic 2048-PC shards: codec decode, SafeDB merge and checkpoint size dominate, fsync is a small share", setupIngestWide},
	{"tier_trace", "open-loop diurnal+burst schedule through router (witness on) and 3 instances plus a hot-PC poll: router hop, witness forward, scatter-gather", setupTierTrace},
	{"query_mix", "closed-loop 20-query cycle (sketch, window, estimate, exact) against a 2^16-PC aggregate while paced wide submits republish views", setupQueryMix},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const setupRepeats = 5

// runWorkload sets the workload up setupRepeats times (setup_s is the
// median), runs the measured phase on the last instance and assembles
// the result.
func runWorkload(e *env, w workloadDef, traced bool) (*result, error) {
	var r harness
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		sub := *e
		sub.dir = filepath.Join(e.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(&sub); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	var out *outcome
	var err error
	defs := endToEnd
	if traced {
		e.tr = newTracer()
		defs = perLayer
		out, err = r.layers(e)
	} else {
		out, err = r.measure(e)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out.metrics["setup_s"] = median(setups)
	if traced {
		if err := e.tr.write(filepath.Join(e.outDir, e.traceAs), header(e, w.name)); err != nil {
			return nil, err
		}
	}

	res := &result{
		Correct:   len(out.oracleFailures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	report(e, w, defs, out, setups)
	return res, nil
}

// report prints every measured metric by name with its unit.
func report(e *env, w workloadDef, defs []metricDef, out *outcome, setups []float64) {
	e.printf("## %s — %s\n", w.name, w.why)
	e.printf("   setup runs (s): %s\n", fmtFloats(setups))
	for _, d := range defs {
		v, measured := out.metrics[d.Name]
		if !measured {
			continue // a layer this workload never enters
		}
		note := ""
		if d.Exact {
			note = "  (exact)"
		}
		e.printf("   %-28s %14.6g %-6s%s\n", d.Name, v, d.Unit, note)
	}
	extra := make([]string, 0, len(out.detail))
	for k := range out.detail {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		e.printf("   (%s %.6g)\n", k, out.detail[k])
	}
	e.printf("   attempted %d, failed %d\n", out.attempted, out.failed)
	for _, f := range out.oracleFailures {
		e.printf("   ORACLE FAILED: %s\n", f)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// header is what a reader needs to judge whether two runs are comparable.
func header(e *env, workload string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"smoke":      e.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"scratch":    e.dir,
		"scratch_fs": fsType(e.dir),
	}
}

// fsType names the filesystem holding dir (longest matching mount point
// in /proc/mounts); disk numbers describe that filesystem only.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimRight(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// runRecord is one line of a -out file: what -compare reads.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	werr := json.NewEncoder(f).Encode(rec)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all six)")
		seed    = fs.Uint64("seed", 1, "derives every random choice of the run")
		seconds = fs.Float64("seconds", 12, "measuring budget per workload")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics + bench/out/trace.json")
		smoke   = fs.Bool("smoke", false, "tiny sizes (the test suite's mode)")
		outDir  = fs.String("outdir", filepath.Join("bench", "out"), "directory for trace.json and scratch state (relative to the checkout root)")
		outFile = fs.String("out", "", "append each workload's result to this JSON-lines file (for -compare)")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workloadDef{w}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*outDir, "scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var last []byte
	for _, w := range todo {
		e := &env{seed: *seed, seconds: *seconds, smoke: *smoke, dir: filepath.Join(dir, w.name), outDir: *outDir, traceAs: "trace.json", out: stdout}
		if len(todo) > 1 {
			e.traceAs = "trace." + w.name + ".json"
		}
		hdr, _ := json.Marshal(header(e, w.name))
		e.printf("# run %s\n", hdr)
		res, err := runWorkload(e, w, *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if last, err = json.Marshal(res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if len(todo) > 1 {
			e.printf("%s %s\n", w.name, last)
		}
	}
	// The driver reads the last line: one workload's result object.
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}
