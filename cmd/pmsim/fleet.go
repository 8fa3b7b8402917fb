package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// fleetOptions is what fleet mode needs beside the runner's own
// configuration — the shape of the job list and where the aggregate goes —
// assembled from flags that already passed validate.
type fleetOptions struct {
	benches   []string // suite benchmarks; {""} is the program -gen generates
	genSeed   uint64
	scale     int
	shards    int
	chaos     float64
	resume    bool
	top       int
	saveTo    string
	submitURL string
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
	for _, b := range o.benches {
		name := b
		if b == "" {
			name = fmt.Sprintf("gen%d", o.genSeed)
		}
		for s := 0; s < o.shards; s++ {
			jobs = append(jobs, runner.Job{
				ID:        fmt.Sprintf("%s/s%03d", name, s),
				Bench:     b,
				GenSeed:   o.genSeed,
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
func runFleet(cfg runner.Config, o fleetOptions) int {
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
		if len(o.benches) == 1 {
			prog, err := workload.Program(o.benches[0], o.genSeed, o.scale)
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

// parseBenches splits and validates a comma-separated -bench list for
// fleet mode; "" (validate saw a -gen) is the one generated program.
func parseBenches(arg string) ([]string, error) {
	if arg == "" {
		return []string{""}, nil
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
