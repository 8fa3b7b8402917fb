// Command pmsim runs a workload on the out-of-order timing simulator with
// ProfileMe instruction sampling attached, and prints the run summary and
// the hot-instruction profile the sampling software accumulated.
//
// Examples:
//
//	pmsim -bench compress                  # profile the compress kernel
//	pmsim -bench li -scale 500000 -top 20  # a bigger run, longer report
//	pmsim -gen 42                          # profile a generated program
//	pmsim -bench ijpeg -paired             # paired sampling + concurrency
//	pmsim -bench go -inorder               # 21164-like in-order pipeline
//
// Fleet mode runs a supervised profiling campaign — benchmark × shards
// jobs across a worker pool with retries, checkpointing, and graceful
// drain on SIGINT/SIGTERM:
//
//	pmsim -bench compress -fleet 4 -shards 16 -checkpoint /tmp/camp
//	pmsim -bench compress -fleet 4 -shards 16 -checkpoint /tmp/camp -resume
//
// Both modes make a shard with runner.RunShard, so the program and
// sampling flags mean the same in each; a flag a mode cannot honour
// (-edges with -fleet, -shards without it) exits 2.
//
// With -submit each completed shard is also POSTed to a collector. To
// keep what a fleet offered as a replayable trace, point -submit at a
// pmtraffic record relay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/faultinject"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "", "suite benchmark to run ("+strings.Join(workload.Names(), ", ")+")")
		genSeed   = flag.Uint64("gen", 0, "run a generated program with this seed instead of a suite benchmark")
		scale     = flag.Int("scale", 200_000, "approximate dynamic instruction count")
		interval  = flag.Float64("interval", 512, "mean sampling interval (fetched instructions)")
		paired    = flag.Bool("paired", false, "enable paired sampling")
		window    = flag.Int("window", 80, "paired-sampling window W")
		buffer    = flag.Int("buffer", 8, "samples buffered per interrupt")
		countMode = flag.String("count", "instructions", "selection counting: instructions | opportunities")
		intMode   = flag.String("randomize", "geometric", "interval randomization: geometric | uniform | fixed")
		top       = flag.Int("top", 15, "hot instructions to print")
		inorder   = flag.Bool("inorder", false, "use the in-order (21164-like) configuration")
		disasm    = flag.Bool("disasm", false, "print the program disassembly before running")
		byProc    = flag.Bool("proc", false, "also print the per-procedure rollup")
		edges     = flag.Bool("edges", false, "also print the paired-sample edge profile (implies -paired)")
		saveTo    = flag.String("save", "", "save the profile database to a file")
		chaos     = flag.Float64("chaos", 0, "fault-injection rate 0..1: drop/delay/coalesce interrupts, stall drains, overwrite and corrupt samples")
		chaosSeed = flag.Uint64("chaos-seed", 1, "fault-injection RNG seed")
		list      = flag.Bool("list", false, "list the suite benchmarks and exit")

		fleetN     = flag.Int("fleet", 0, "fleet mode: run a supervised campaign across this many workers")
		submitURL  = flag.String("submit", "", "fleet mode: also POST each completed shard profile to this collector; comma-separated URLs add transport-failover fallbacks (e.g. http://localhost:7000)")
		shards     = flag.Int("shards", 4, "fleet mode: sampling shards per benchmark")
		checkpoint = flag.String("checkpoint", "", "fleet mode: checkpoint directory for crash-safe campaign state")
		resume     = flag.Bool("resume", false, "fleet mode: resume the campaign in -checkpoint instead of starting fresh")
		deadline   = flag.Duration("deadline", 0, "per-job wall-clock deadline, enforced as real cancellation (0 = none)")
		seed       = flag.Uint64("seed", 1, "sampling seed; in fleet mode the campaign seed per-shard sampling seeds derive from")
		watchdog   = flag.Int("watchdog", cpu.DefaultWatchdogCycles, "retire-progress watchdog bound in cycles (0 disables livelock detection)")
	)
	flag.Parse()
	if *list {
		for _, b := range workload.Suite() {
			fmt.Printf("%-10s %s\n", b.Name, b.Notes)
		}
		return
	}
	if *edges {
		*paired = true
	}

	fv := flagValues{
		bench:     *benchName,
		gen:       *genSeed,
		chaos:     *chaos,
		fleet:     *fleetN,
		shards:    *shards,
		deadline:  *deadline,
		watchdog:  *watchdog,
		interval:  *interval,
		scale:     *scale,
		count:     *countMode,
		randomize: *intMode,
		resume:    *resume,
		ckptDir:   *checkpoint,
		submit:    *submitURL,
		set:       explicitFlags(flag.CommandLine),
	}
	if err := fv.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Both modes sample the way these flags say: one core.Config, made here.
	ucfg := core.Config{
		Paired:       *paired,
		MeanInterval: *interval,
		Window:       *window,
		BufferDepth:  *buffer,
		CountMode:    countModes[*countMode],
		IntervalMode: intervalModes[*intMode],
		Seed:         *seed,
	}
	if err := ucfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pmsim: %v\n", err)
		os.Exit(2)
	}
	ccfg := cpu.DefaultConfig()
	if *inorder {
		ccfg = cpu.InOrderConfig()
	}
	ccfg.WatchdogCycles = *watchdog

	if fv.fleetMode() {
		benches, err := parseBenches(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(runFleet(runner.Config{
			Workers:       max(*fleetN, 1), // -resume without -fleet
			Deadline:      *deadline,
			Sampling:      ucfg,
			Seed:          *seed,
			CheckpointDir: *checkpoint,
			CPU:           ccfg,
			Log:           slog.New(slog.NewTextHandler(os.Stderr, nil)),
		}, fleetOptions{
			benches:   benches,
			genSeed:   *genSeed,
			scale:     *scale,
			shards:    *shards,
			chaos:     *chaos,
			resume:    *resume,
			top:       *top,
			saveTo:    *saveTo,
			submitURL: *submitURL,
		}))
	}

	prog, err := workload.Program(*benchName, *genSeed, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmsim: %v\n", err)
		os.Exit(2)
	}
	name := *benchName
	if name == "" {
		name = fmt.Sprintf("generated(seed=%d)", *genSeed)
	}
	if *disasm {
		fmt.Print(prog.Disassemble())
	}
	var plan *faultinject.Plan
	if *chaos != 0 {
		plan, err = faultinject.NewPlan(*chaosSeed, faultinject.Uniform(*chaos))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// -edges needs the samples as they arrive, beside the database.
	var edgeDB *profile.EdgeProfile
	var also func([]core.Sample)
	if *edges {
		edgeDB = profile.NewEdgeProfile(*interval, *window)
		also = edgeDB.Handler()
	}
	// Ctrl-C / SIGTERM cancels the run through the same context machinery
	// the fleet uses: the pipeline finalizes at the next cycle batch and
	// hands back the partial result, which is still reported and saved —
	// an interrupted profiling run degrades to a shorter one, it does not
	// vanish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *deadline,
			fmt.Errorf("pmsim: -deadline %v expired", *deadline))
		defer cancel()
	}
	sh, err := runner.RunShard(ctx, prog, ccfg, ucfg, plan, also)
	stop() // a second signal now kills the process the default way
	interrupted := errors.Is(err, cpu.ErrCanceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "pmsim: %v\n", err)
		fmt.Fprintln(os.Stderr, "pmsim: interrupted — the report and any saved database cover only the completed portion of the run")
	}

	db, res := sh.DB, sh.Result
	printSummary(name, res, sh.Pipeline, sh.Stats)
	// Report-time step, after the shard is made: scale this one run's
	// estimates by its realized interval, computed over everything the
	// hardware captured so loss-corrected estimates re-center on the truth.
	// (Fleet shards keep the configured S instead, so they merge.)
	if captured := sh.Stats.Captured(); captured > 0 {
		db.S = float64(res.FetchedOnPath) / float64(captured)
	}
	if plan != nil {
		printDegradation(plan, db, res, sh.Stats)
	}
	fmt.Println()
	fmt.Print(db.Report(prog, *top))
	if *byProc {
		fmt.Println("\nper-procedure rollup:")
		fmt.Print(profile.ProcReport(db, prog))
	}
	if *paired {
		printConcurrency(db, prog, *top)
	}
	if *edges {
		fmt.Println()
		fmt.Print(edgeDB.Report(prog, *top))
	}
	if *saveTo != "" {
		// Atomic save: a failed write leaves any previous database at
		// this path untouched (profile.SaveFile writes temp+fsync+rename).
		if err := profile.SaveFile(db, *saveTo); err != nil {
			fmt.Fprintf(os.Stderr, "pmsim: profile database NOT saved: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nprofile database saved to %s\n", *saveTo)
	}
	if interrupted {
		os.Exit(1)
	}
}

// printDegradation reports what fault injection did to the sampling stack
// and how badly the profile degraded.
func printDegradation(plan *faultinject.Plan, db *profile.DB, res cpu.Result, st core.Stats) {
	c := plan.Counts()
	fmt.Printf("chaos: %d delivered, %d dropped, %d overwritten, %d corrupt-rejected; estimated loss rate %.1f%%\n",
		db.Samples(), st.SamplesDropped, st.SamplesOverwritten, db.CorruptRejected(),
		100*db.LossRate())
	fmt.Printf("chaos faults: %d interrupts suppressed, %d delayed, %d coalesced, %d drains stalled (%d hold cycles), %d samples corrupted\n",
		c.InterruptsDropped, c.InterruptsDelayed, c.InterruptsCoalesced, c.DrainsStalled,
		res.InterruptHoldCycles, c.SamplesCorrupted)
}

func printSummary(name string, res cpu.Result, pipe *cpu.Pipeline, st core.Stats) {
	fmt.Printf("%s: %d instructions retired in %d cycles (IPC %.2f, CPI %.2f)\n",
		name, res.Retired, res.Cycles, res.IPC(), res.CPI())
	fmt.Printf("fetched: %d on-path, %d wrong-path, %d empty slots\n",
		res.FetchedOnPath, res.FetchedOffPath, res.EmptyFetchSlots)
	fmt.Printf("mispredicts: %d   replay traps: %d\n", res.Mispredicts, res.ReplayTraps)
	lk, mp := pipe.Predictor().Accuracy()
	if lk > 0 {
		fmt.Printf("branch accuracy: %.2f%% of %d resolved\n", 100*(1-float64(mp)/float64(lk)), lk)
	}
	dc := pipe.Hierarchy().DCache()
	if acc, miss := dc.Stats(); acc > 0 {
		fmt.Printf("dcache: %d accesses, %.2f%% miss\n", acc, 100*float64(miss)/float64(acc))
	}
	fmt.Printf("profileme: %d samples (%d off-path, %d empty), %d interrupts, %d stall cycles (%.2f%% of run)\n",
		st.SamplesBuffered, st.OffPath, st.EmptySelected, res.Interrupts, res.InterruptStall,
		100*float64(res.InterruptStall)/float64(res.Cycles))
}

func printConcurrency(db *profile.DB, prog *isa.Program, top int) {
	fmt.Println("\npaired-sampling concurrency metrics (top instructions by wasted slots):")
	fmt.Printf("%-12s %-24s %12s %12s %12s %8s\n",
		"pc", "instruction", "wasted", "total-slots", "useful", "nearIPC")
	type row struct {
		pc                    uint64
		wasted, total, useful float64
		ipc                   float64
	}
	var rows []row
	for _, pc := range db.PCs() {
		w, t, u, ok := db.WastedSlots(pc)
		if !ok {
			continue
		}
		ipc, _ := db.NeighborhoodIPC(pc)
		rows = append(rows, row{pc, w, t, u, ipc})
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].wasted > rows[i].wasted {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	if len(rows) > top {
		rows = rows[:top]
	}
	for _, r := range rows {
		dis := ""
		if in, ok := prog.At(r.pc); ok {
			dis = in.String()
		}
		fmt.Printf("%-12s %-24s %12.0f %12.0f %12.0f %8.2f\n",
			prog.SymbolFor(r.pc), dis, r.wasted, r.total, r.useful, r.ipc)
	}
}
