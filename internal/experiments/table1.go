package experiments

import (
	"context"
	"fmt"
	"strings"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// table1Config parameterizes the latency-diagnosis experiment.
type table1Config struct {
	Iters        int
	MeanInterval float64
	Seed         uint64
}

// defaultTable1Config samples each stress kernel densely.
func defaultTable1Config(quick bool) table1Config {
	return table1Config{Iters: pick(quick, 20_000, 6000), MeanInterval: 25, Seed: 5}
}

// table1Row holds the sampled mean latencies of one kernel: the five
// adjacent-stage latencies plus load issue->completion.
type table1Row struct {
	Kernel  string
	Lat     [profile.NumLatencyKinds]float64
	MemLat  float64
	Samples uint64
}

// table1Result holds one row per stress kernel.
type table1Result struct {
	Rows []table1Row
}

// table1 reproduces Table 1 behaviourally: each stress kernel is built to
// inflate one pipeline-stage latency, and the ProfileMe latency registers
// — read purely from samples — must attribute the stall to that stage. A
// balanced baseline kernel anchors the comparison.
func table1(cfg table1Config) (*table1Result, error) {
	progs := workload.Table1Programs(cfg.Iters)
	progs["balanced"] = workload.Table1Baseline(cfg.Iters)
	res := &table1Result{}

	// Every kernel runs with the same configured seed (cells share no
	// state at all), so the rows fan out directly; row order is the
	// kernel list order regardless of scheduling.
	names := append([]string{"balanced"}, workload.Table1Order()...)
	rows, err := runner.Map(len(names), func(i int) (table1Row, error) {
		name := names[i]
		prog := progs[name]
		ccfg := cpu.DefaultConfig()
		ccfg.InterruptCost = 0
		ucfg := core.DefaultConfig()
		ucfg.MeanInterval = cfg.MeanInterval
		ucfg.BufferDepth = 64
		ucfg.Seed = cfg.Seed
		sh, err := runner.RunShard(context.TODO(), prog, ccfg, ucfg, nil, nil)
		if err != nil {
			return table1Row{}, fmt.Errorf("table1: %s: %w", name, err)
		}
		db := sh.DB

		row := table1Row{Kernel: name}
		var latSum [profile.NumLatencyKinds]int64
		var latCnt [profile.NumLatencyKinds]uint64
		var memSum int64
		var memCnt uint64
		for _, pc := range db.PCs() {
			a := db.Get(pc)
			row.Samples += a.Samples
			for i := 0; i < profile.NumLatencyKinds; i++ {
				latSum[i] += a.LatSum[i]
				latCnt[i] += a.LatCount[i]
			}
			memSum += a.MemLatSum
			memCnt += a.MemLatCount
		}
		for i := range row.Lat {
			if latCnt[i] > 0 {
				row.Lat[i] = float64(latSum[i]) / float64(latCnt[i])
			}
		}
		if memCnt > 0 {
			row.MemLat = float64(memSum) / float64(memCnt)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// kernelTarget maps each kernel to the latency it is engineered to
// inflate: an index into the five stage latencies, or -1 for the
// load-to-completion memory latency. The balanced baseline has no target.
var kernelTarget = map[string]int{
	"map-stall":     0,  // fetch -> map
	"dep-stall":     1,  // map -> data-ready
	"fu-contention": 2,  // data-ready -> issue
	"exec-latency":  3,  // issue -> retire-ready
	"retire-stall":  4,  // retire-ready -> retire
	"mem-latency":   -1, // load issue -> completion
}

// Check verifies that each stress kernel inflates its target latency well
// above the balanced baseline's value for the same latency. (Stall causes
// correlate — a dependence backlog also fills the issue queue and stalls
// the mapper — so the baseline, not the other stress kernels, is the
// meaningful reference; Table 1 in the paper likewise maps each latency to
// the stall it diagnoses rather than claiming the latencies are
// independent.)
func (r *table1Result) Check() error {
	get := func(row table1Row, target int) float64 {
		if target < 0 {
			return row.MemLat
		}
		return row.Lat[target]
	}
	var base *table1Row
	for i := range r.Rows {
		if r.Rows[i].Kernel == "balanced" {
			base = &r.Rows[i]
		}
	}
	if base == nil {
		return fmt.Errorf("table1: baseline row missing")
	}
	for _, row := range r.Rows {
		if row.Kernel == "balanced" {
			continue
		}
		target := kernelTarget[row.Kernel]
		mine := get(row, target)
		ref := get(*base, target)
		if err := checkf(mine > 2*ref && mine > ref+2,
			"table1: %s: target latency %.1f not well above baseline %.1f",
			row.Kernel, mine, ref); err != nil {
			return err
		}
	}
	return nil
}

// Render prints the kernel-by-latency matrix.
func (r *table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — sampled mean pipeline-stage latencies per stress kernel (cycles)\n")
	fmt.Fprintf(&b, "%-14s", "kernel")
	for i := 0; i < profile.NumLatencyKinds; i++ {
		fmt.Fprintf(&b, " %19s", profile.LatencyKindName(i))
	}
	fmt.Fprintf(&b, " %14s %8s\n", "ld-issue->compl", "samples")
	for _, row := range r.Rows {
		target, hasTarget := kernelTarget[row.Kernel]
		fmt.Fprintf(&b, "%-14s", row.Kernel)
		for i, v := range row.Lat {
			mark := " "
			if hasTarget && target == i {
				mark = "*"
			}
			fmt.Fprintf(&b, " %18.1f%s", v, mark)
		}
		mark := " "
		if hasTarget && target == -1 {
			mark = "*"
		}
		fmt.Fprintf(&b, " %13.1f%s %8d\n", row.MemLat, mark, row.Samples)
	}
	b.WriteString("(* marks the latency each kernel was engineered to inflate)\n")
	for i := 0; i < profile.NumLatencyKinds; i++ {
		fmt.Fprintf(&b, "  %-19s: %s\n", profile.LatencyKindName(i), profile.LatencyKindDiagnosis(i))
	}
	return b.String()
}
