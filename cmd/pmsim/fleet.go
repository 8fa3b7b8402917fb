package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// fleetOptions is everything fleet mode needs, assembled from flags that
// already passed validate.
type fleetOptions struct {
	benches    []string // suite benchmarks; empty means a generated program
	genSeed    uint64
	scale      int
	shards     int
	workers    int
	interval   float64
	buffer     int
	chaos      float64
	seed       uint64
	deadline   time.Duration
	checkpoint string
	resume     bool
	ccfg       cpu.Config
	top        int
	saveTo     string
	submitURL  string
	quiet      bool
}

// splitSubmitURLs expands the -submit value: a comma-separated list of
// collector URLs, primary first. validate already checked each entry.
func splitSubmitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// fleetJobs expands benchmark × shards into the campaign job list. Shards
// of one benchmark run the same program and differ only by sampling seed
// (derived per job ID by the runner), which is exactly the independent-
// runs setup the profile merge assumes.
func fleetJobs(o fleetOptions) []runner.Job {
	var jobs []runner.Job
	if len(o.benches) == 0 {
		for s := 0; s < o.shards; s++ {
			jobs = append(jobs, runner.Job{
				ID:        fmt.Sprintf("gen%d/s%03d", o.genSeed, s),
				GenSeed:   o.genSeed,
				Scale:     o.scale,
				ChaosRate: o.chaos,
			})
		}
		return jobs
	}
	for _, b := range o.benches {
		for s := 0; s < o.shards; s++ {
			jobs = append(jobs, runner.Job{
				ID:        fmt.Sprintf("%s/s%03d", b, s),
				Bench:     b,
				Scale:     o.scale,
				ChaosRate: o.chaos,
			})
		}
	}
	return jobs
}

// runFleet executes (or resumes) a profiling campaign and returns the
// process exit code: 0 when every job completed, 1 when jobs were
// dead-lettered, the campaign was drained early, or the fleet itself
// failed.
func runFleet(o fleetOptions) int {
	cfg := runner.Config{
		Workers:       o.workers,
		Deadline:      o.deadline,
		Interval:      o.interval,
		BufferDepth:   o.buffer,
		Seed:          o.seed,
		CheckpointDir: o.checkpoint,
		CPU:           o.ccfg,
	}
	if !o.quiet {
		cfg.Log = os.Stderr
	}
	if o.submitURL != "" {
		// Each completed shard is also POSTed to the collector (a pmsimd
		// or a pmrouter); undeliverable shards stay in the local aggregate
		// and the report counts them as degradation, not failure. Extra
		// comma-separated URLs are transport-failover fallbacks — same
		// tier, different frontend.
		urls := splitSubmitURLs(o.submitURL)
		cfg.Sink = runner.NewHTTPSink(urls[0], urls[1:]...)
	}
	jobs := fleetJobs(o)

	var (
		f   *runner.Fleet
		err error
	)
	if o.resume {
		f, err = runner.Resume(cfg, jobs)
	} else {
		f, err = runner.New(cfg, jobs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// SIGINT/SIGTERM starts a graceful drain: dispatch stops, in-flight
	// jobs get the grace period, and what they leave unfinished is
	// journaled for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, runErr := f.Run(ctx)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	fmt.Print(rep.String())

	if db := f.Profile(); db != nil {
		// Per-instruction attribution needs one program image; with a
		// multi-benchmark campaign the aggregate spans several.
		if len(o.benches) <= 1 {
			prog, _, err := pickProgram(firstBench(o.benches), o.genSeed, o.scale)
			if err == nil {
				fmt.Println()
				fmt.Print(db.Report(prog, o.top))
			}
		} else {
			fmt.Printf("\naggregate spans %d benchmarks; per-instruction report skipped (use one -bench to attribute PCs)\n",
				len(o.benches))
		}
		if o.saveTo != "" {
			if err := profile.SaveFile(db, o.saveTo); err != nil {
				fmt.Fprintf(os.Stderr, "pmsim: profile database NOT saved: %v\n", err)
				return 1
			}
			fmt.Printf("\naggregate profile database saved to %s\n", o.saveTo)
		}
	}

	switch {
	case runErr != nil:
		return 1
	case rep.DeadLettered > 0 || rep.Drained:
		return 1
	default:
		return 0
	}
}

func firstBench(benches []string) string {
	if len(benches) == 0 {
		return ""
	}
	return benches[0]
}

// parseBenches splits and validates a comma-separated -bench list for
// fleet mode ("" is fine when -gen selects a generated program).
func parseBenches(arg string) ([]string, error) {
	if arg == "" {
		return nil, nil
	}
	var benches []string
	for _, b := range strings.Split(arg, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if _, ok := workload.ByName(b); !ok {
			return nil, fmt.Errorf("pmsim: unknown benchmark %q; benchmarks: %s",
				b, strings.Join(workload.Names(), ", "))
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("pmsim: -bench %q names no benchmark", arg)
	}
	return benches, nil
}
