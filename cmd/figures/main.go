// Command figures regenerates every table and figure of the paper's
// evaluation from the reproduction's own simulator and workloads:
//
//	figures [-quick] [-csv] <experiment>|all
//
// `figures -h` lists the experiments (internal/experiments.All). Each
// prints the paper's rows/series and then reports whether the paper's
// qualitative claims hold on this run ("shape check").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"profileme/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is figures: it returns the exit status (0 for -h, 2 for usage or
// an unknown experiment, 1 when an experiment fails or its shape check
// does).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the reduced configurations (~10x faster)")
	csv := fs.Bool("csv", false, "emit the figure's data series as CSV instead of text")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: figures [-quick] [-csv] <experiment>|all")
		for _, e := range experiments.All {
			fmt.Fprintf(stderr, "  %-10s %s\n", e.Name, e.About)
		}
		fmt.Fprintf(stderr, "  %-10s %s\n", "all", "everything above, in order")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0 // -h asked for the usage it printed
	} else if err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	todo := experiments.All
	if name := fs.Arg(0); name != "all" {
		todo = nil
		for _, e := range experiments.All {
			if e.Name == name {
				todo = append(todo, e)
			}
		}
		if todo == nil {
			fmt.Fprintf(stderr, "figures: unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
	}

	status := 0
	for i, e := range todo {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := runOne(e, *quick, *csv, stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			status = 1
		}
	}
	return status
}

// runOne runs one experiment and prints its rendering and shape check, or
// its CSV.
func runOne(e experiments.Experiment, quick, csv bool, stdout io.Writer) error {
	res, err := e.Run(quick)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprint(stdout, res.CSV())
		return res.Check()
	}
	fmt.Fprint(stdout, res.Render())
	if err := res.Check(); err != nil {
		fmt.Fprintf(stdout, "shape check: FAILED: %v\n", err)
		return err
	}
	fmt.Fprintln(stdout, "shape check: ok")
	return nil
}
