package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json's schema.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesTables pins BENCHMARK.json to the tables the program
// reports from, and to the limits of the benchmark contract.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or reused", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloads) || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		checkName(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q does not match the program's %q (or its why is not one line of <= 200 chars)", i, w.Name, workloads[i].name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		checkName(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v does not match the program's %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(c.PerLayer) != len(perLayer) || len(c.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		checkName(m.Name, m.Unit)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v does not match the program's %+v", i, m, d)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d / paths %v out of contract", c.RunSeconds, c.Paths)
	}
}

// smokeRun runs one workload at the smoke size and returns its result.
func smokeRun(t *testing.T, workload string, seed uint64, trace int) *result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--seconds", "0.2",
		"--trace", strconv.Itoa(trace), "--smoke", "--outdir", t.TempDir(),
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(raw) != 4 {
		t.Errorf("%s: result has keys %v, want exactly correct/attempted/failed/metrics", workload, raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return &res
}

// TestSmoke runs all six workloads, untraced and traced, at the smoke
// size: every metric BENCHMARK.json names is emitted with its unit, every
// oracle passes, and the trace file is written.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		res := smokeRun(t, w.Name, 5, 0)
		if len(res.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w.Name, len(res.Metrics), len(c.EndToEnd))
		}
		for _, m := range c.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		res = smokeRun(t, w.Name, 5, 1)
		if len(res.Metrics) != len(c.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", w.Name, len(res.Metrics), len(c.PerLayer))
		}
		for _, m := range c.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestSeedDeterminism: the same -seed gives bit-identical exact metrics,
// a different one does not.
func TestSeedDeterminism(t *testing.T) {
	exactOf := func(seed uint64) map[string]float64 {
		out := map[string]float64{}
		res := smokeRun(t, "sim_stall", seed, 1)
		for _, d := range perLayer {
			if d.Exact {
				out[d.Name] = res.Metrics[d.Name].Value
			}
		}
		return out
	}
	a, again, b := exactOf(11), exactOf(11), exactOf(12)
	differs := false
	for name, v := range a {
		if math.Float64bits(v) != math.Float64bits(again[name]) {
			t.Errorf("%s: %v then %v for the same seed", name, v, again[name])
		}
		differs = differs || v != b[name]
	}
	if !differs {
		t.Error("a different seed gave the same exact metrics")
	}
}

// TestTraceFile checks the span file of a traced run: every span has a
// name, an interval and a parent that precedes it.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "ingest_narrow", "--smoke", "--seconds", "0.2", "--trace", "1", "--outdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header map[string]any `json:"header"`
		Spans  []span         `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Header["seed"] == nil || doc.Header["go"] == nil || doc.Header["scratch_fs"] == nil {
		t.Errorf("trace header lacks seed/go/scratch_fs: %v", doc.Header)
	}
	children := 0
	for i, s := range doc.Spans {
		if s.Name == "" || s.End < s.Start || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent >= 0 {
			children++
			if doc.Spans[s.Parent].Input != s.Input {
				t.Errorf("span %d (%s) and its parent disagree on the input id", i, s.Name)
			}
		}
	}
	if len(doc.Spans) == 0 || children == 0 {
		t.Errorf("%d spans, %d with a parent", len(doc.Spans), children)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "scratch-*")); len(entries) != 0 {
		t.Errorf("scratch directories left behind: %v", entries)
	}
}

// TestCompareVerdicts exercises -compare's three verdicts.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{10.5, 10.4, 10.6, 10.5, 10.5}, "agree"},
		{"worse than bound", lower, steady, []float64{11.5, 11.4, 11.6, 11.5, 11.5}, "differ"},
		{"better", lower, steady, []float64{5, 5.1, 4.9, 5, 5}, "agree"},
		{"spread wider than bound", lower, []float64{8, 12, 10, 7, 13}, []float64{9, 12, 10, 8, 13}, "unresolved"},
		{"wide but every run better", lower, []float64{8, 12, 10, 7, 13}, []float64{3, 4, 3, 5, 4}, "agree"},
		{"higher is better", metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}, steady, []float64{8, 8.1, 8, 7.9, 8}, "differ"},
	}
	for _, c := range cases {
		if got, detail := verdict(c.d, c.a, c.b, nil, nil); got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, detail, c.want)
		}
	}
	exact := metricDef{Name: "cpu.li.cycles", Exact: true}
	if got, _ := verdict(exact, nil, nil, map[uint64]float64{1: 100, 2: 7}, map[uint64]float64{1: 100}); got != "agree" {
		t.Errorf("equal exact metric: %s", got)
	}
	if got, _ := verdict(exact, nil, nil, map[uint64]float64{1: 100}, map[uint64]float64{1: 100.5}); got != "differ" {
		t.Errorf("unequal exact metric: %s", got)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
