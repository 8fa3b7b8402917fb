// Command pmdump loads a profile database saved by pmsim -save, or the
// aggregate in a pmsimd -checkpoint file, and prints its reports — the
// offline half of the DCPI-style collect-then-analyze workflow. Since the
// database stores only counts and sums, dumps are cheap to ship and merge.
//
//	pmsim -bench vortex -save v.prof
//	pmdump v.prof
//	pmdump -merge a.prof b.prof c.prof
//	pmdump /var/lib/pmsim/agg.db
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is pmdump: it returns the exit status (0 for -h, 2 for usage, 1
// for a file that cannot be loaded or merged — the message names the
// file).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 20, "hot instructions to print")
	merge := fs.Bool("merge", false, "merge all argument databases before reporting")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0 // -h asked for the usage it printed
	} else if err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: pmdump [-top n] [-merge] profile.db [more.db ...]")
		return 2
	}
	if fs.NArg() > 1 && !*merge {
		fmt.Fprintln(stderr, "pmdump: multiple databases need -merge")
		return 2
	}

	var db *profile.DB
	for _, path := range fs.Args() {
		other, err := load(path)
		if err != nil {
			fmt.Fprintln(stderr, "pmdump:", err)
			return 1
		}
		if db == nil {
			db = other
		} else if err := db.Merge(other); err != nil {
			fmt.Fprintf(stderr, "pmdump: %s: %v\n", path, err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "profile: %d samples (%d paired), %d lost, interval %.1f, window %d\n",
		db.Samples(), db.Pairs(), db.Lost(), db.S, db.W)
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, db.Report(nil, *top))

	// Event totals across all PCs. The instruction estimate goes through
	// the DB's loss-corrected per-PC estimator, like the report's rows.
	var retired, dmiss, mispred uint64
	var insts float64
	for _, pc := range db.PCs() {
		a := db.Get(pc)
		retired += a.Retired()
		dmiss += a.EventCount(core.EvDCacheMiss)
		mispred += a.EventCount(core.EvMispredict)
		insts += db.EstimatedEventCount(pc, core.EvRetired)
	}
	fmt.Fprintf(stdout, "\ntotals: %d retired samples, %d D-cache-miss samples, %d mispredict samples\n",
		retired, dmiss, mispred)
	half := 0.0
	if retired > 0 {
		lo, hi := profile.ConfidenceInterval(retired, insts/float64(retired), 1.96)
		half = (hi - lo) / 2
	}
	fmt.Fprintf(stdout, "estimated instructions: %.0f (95%% CI half-width %.0f)\n", insts, half)
	return 0
}

// load reads a profile database, or the aggregate in a collector
// checkpoint (ingest.LoadCheckpointFile tells the two apart).
func load(path string) (*profile.DB, error) {
	ck, err := ingest.LoadCheckpointFile(path)
	switch {
	case err != nil:
		return nil, err
	case ck == nil:
		return nil, fmt.Errorf("%s: %w", path, os.ErrNotExist)
	case ck.Aggregate() == nil:
		return nil, fmt.Errorf("%s: checkpoint holds no aggregate", path)
	}
	return ck.Aggregate(), nil
}
