package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is the runs of one -out file, keyed by workload then metric.
type runSet struct {
	values map[string]map[string][]float64          // trace-0 and trace-1 metrics alike
	bySeed map[string]map[string]map[uint64]float64 // for the exact metrics
}

func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, bySeed: map[string]map[string]map[uint64]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a run record: %v", path, line, err)
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
			rs.bySeed[rec.Workload] = map[string]map[uint64]float64{}
		}
		for name, mv := range rec.Result.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], mv.Value)
			if rs.bySeed[rec.Workload][name] == nil {
				rs.bySeed[rec.Workload][name] = map[uint64]float64{}
			}
			rs.bySeed[rec.Workload][name][rec.Seed] = mv.Value
		}
	}
	return rs, sc.Err()
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// verdict applies one metric's own bound to two sets of runs of it.
//
//   - exact metrics must be bit-equal for every seed both sides ran;
//   - a bounded metric differs when b's median is worse than a's by more
//     than the bound, and is unresolved when either side's own spread is
//     wider than the bound — unless every b run beats every a run;
//   - unbounded, inexact metrics (most per-layer ones) are reported only.
func verdict(d metricDef, a, b []float64, aSeed, bSeed map[uint64]float64) (string, string) {
	if d.Exact {
		common := 0
		for seed, av := range aSeed {
			if bv, ok := bSeed[seed]; ok {
				common++
				if math.Float64bits(av) != math.Float64bits(bv) {
					return "differ", fmt.Sprintf("seed %d: %v vs %v", seed, av, bv)
				}
			}
		}
		if common == 0 {
			return "unresolved", "no seed in common"
		}
		return "agree", fmt.Sprintf("bit-equal on %d seed(s)", common)
	}
	ma, mb := median(a), median(b)
	detail := fmt.Sprintf("median %.6g -> %.6g (%+.1f%%), spread %.1f%% / %.1f%%",
		ma, mb, 100*(mb-ma)/math.Max(math.Abs(ma), 1e-300), 100*spread(a), 100*spread(b))
	if d.Bound == 0 {
		return "info", detail
	}
	worse := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = (ma - mb) / ma
		better = func(x, y float64) bool { return x > y }
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved", detail
				}
			}
		}
		return "agree", detail + " (every run better)"
	}
	if worse > d.Bound {
		return "differ", detail
	}
	return "agree", detail
}

// compareFiles prints agree / differ / unresolved per (metric, workload)
// and returns non-zero when anything differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareRuns(a, b, stdout)
}

func compareRuns(a, b *runSet, stdout io.Writer) int {
	counts := map[string]int{}
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				av, bv := a.values[w.name][d.Name], b.values[w.name][d.Name]
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				v, detail := verdict(d, av, bv, a.bySeed[w.name][d.Name], b.bySeed[w.name][d.Name])
				counts[v]++
				if v == "info" && median(av) == 0 && median(bv) == 0 {
					continue // a layer the workload never enters
				}
				fmt.Fprintf(stdout, "%-10s %-14s %-28s %s\n", v, w.name, d.Name, detail)
			}
		}
	}
	fmt.Fprintf(stdout, "agree %d, differ %d, unresolved %d, reported only %d\n",
		counts["agree"], counts["differ"], counts["unresolved"], counts["info"])
	if counts["differ"] > 0 {
		return 1
	}
	return 0
}
