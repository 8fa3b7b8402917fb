package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"profileme/internal/core"
	"profileme/internal/workload"
)

// flagValues carries the parsed flags that validate checks up front, plus
// the set of flag names the user passed explicitly (flag.Visit): -fleet,
// -shards and -deadline have meaningful zero defaults, so only explicit
// nonsense is rejected for them.
type flagValues struct {
	bench     string
	gen       uint64
	chaos     float64
	fleet     int
	shards    int
	deadline  time.Duration
	watchdog  int
	interval  float64
	scale     int
	count     string
	randomize string
	resume    bool
	ckptDir   string
	submit    string
	set       map[string]bool
}

// The -count and -randomize names.
var (
	countModes = map[string]core.CountMode{
		"instructions":  core.CountInstructions,
		"opportunities": core.CountFetchOpportunities,
	}
	intervalModes = map[string]core.IntervalMode{
		"geometric": core.IntervalGeometric,
		"uniform":   core.IntervalUniform,
		"fixed":     core.IntervalFixed,
	}
)

// fleetMode reports whether these flags select a campaign, not a single run.
func (v flagValues) fleetMode() bool { return v.fleet >= 1 || v.resume }

func explicitFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validate rejects bad flag combinations before any simulator state is
// built, so misuse fails fast with a clear message instead of surfacing
// as a confusing mid-run error.
func (v flagValues) validate() error {
	fleetMode := v.fleetMode()
	switch {
	case v.bench == "" && v.gen == 0:
		return fmt.Errorf("pmsim: pass -bench <name> (fleet mode: <name[,name...]>) or -gen <seed>; benchmarks: %s",
			strings.Join(workload.Names(), ", "))
	case v.bench != "" && v.gen != 0:
		return fmt.Errorf("pmsim: -bench %s and -gen %d both name the program; pass one", v.bench, v.gen)
	case v.chaos < 0 || v.chaos > 1:
		return fmt.Errorf("pmsim: -chaos %g out of range: fault rate must be in [0,1]", v.chaos)
	case v.set["fleet"] && v.fleet < 1:
		return fmt.Errorf("pmsim: -fleet %d: the worker pool needs at least 1 worker", v.fleet)
	case v.set["shards"] && v.shards < 1:
		return fmt.Errorf("pmsim: -shards %d: a campaign needs at least 1 shard per benchmark", v.shards)
	case v.set["deadline"] && v.deadline <= 0:
		return fmt.Errorf("pmsim: -deadline %v: per-job deadline must be positive", v.deadline)
	case v.watchdog < 0:
		return fmt.Errorf("pmsim: -watchdog %d: retire-progress bound must be ≥ 0 (0 disables it)", v.watchdog)
	case v.interval < 1:
		return fmt.Errorf("pmsim: -interval %g: mean sampling interval must be ≥ 1", v.interval)
	case v.scale < 1:
		return fmt.Errorf("pmsim: -scale %d: instruction budget must be ≥ 1", v.scale)
	case v.resume && v.ckptDir == "":
		return fmt.Errorf("pmsim: -resume needs -checkpoint <dir> pointing at the campaign to continue")
	case v.submit != "" && !fleetMode:
		return fmt.Errorf("pmsim: -submit delivers fleet shards; combine it with -fleet <workers> (or -resume)")
	}
	if _, ok := countModes[v.count]; !ok {
		return fmt.Errorf("pmsim: -count %q: selection counting is instructions or opportunities", v.count)
	}
	if _, ok := intervalModes[v.randomize]; !ok {
		return fmt.Errorf("pmsim: -randomize %q: interval randomization is geometric, uniform or fixed", v.randomize)
	}
	// A flag only one mode can honour is refused in the other, never ignored.
	for _, name := range []string{"edges", "proc", "disasm", "chaos-seed"} {
		if fleetMode && v.set[name] {
			return fmt.Errorf("pmsim: -%s reports on a single run; drop it or drop -fleet / -resume", name)
		}
	}
	for _, name := range []string{"shards", "checkpoint"} {
		if !fleetMode && v.set[name] {
			return fmt.Errorf("pmsim: -%s shapes a campaign; combine it with -fleet <workers> (or -resume)", name)
		}
	}
	if v.submit != "" {
		// -submit accepts a comma-separated list: primary collector (or
		// router) first, transport-failover fallbacks after.
		for _, u := range strings.Split(v.submit, ",") {
			u = strings.TrimSpace(u)
			if u == "" || (!strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://")) {
				return fmt.Errorf("pmsim: -submit %q: collector URL must start with http:// or https://", u)
			}
		}
	}
	return nil
}
