// Package experiments implements one self-contained harness per table,
// figure and claim of the paper's evaluation (DESIGN.md §5's ablations
// included), declared once in All: cmd/figures runs that list and
// TestExperiments runs the same list at the reduced configurations.
// Every experiment returns a structured result plus a text rendering of
// the paper's rows/series, and — where the paper's claim is a shape
// rather than a number — a Check method that verifies the shape holds.
package experiments

import "fmt"

// Result is what every experiment returns.
type Result interface {
	// Check reports whether the paper's qualitative claims hold on this
	// run ("shape check").
	Check() error
	// Render prints the paper's rows/series as text.
	Render() string
	// CSV prints the data series, one header line then one row per point.
	CSV() string
}

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	Name  string // the cmd/figures argument
	About string // one line for the usage text
	// Run runs the experiment at its default configuration or, with
	// quick, at the reduced one declared beside the default (~10x
	// faster; EXPERIMENTS.md quotes these runs). An experiment with one
	// configuration runs it either way.
	Run func(quick bool) (Result, error)
}

// All is every experiment, in the order `figures all` runs them.
var All = []Experiment{
	{"fig2", "event-counter PC attribution (in-order vs OoO)", entry(defaultFigure2Config, figure2)},
	{"table1", "pipeline-stage latencies per stress kernel", entry(defaultTable1Config, table1)},
	{"fig3", "convergence of sampled estimates", entry(defaultFigure3Config, figure3)},
	{"fig6", "path reconstruction success rates", entry(defaultFigure6Config, figure6)},
	{"fig7", "latency vs wasted issue slots", entry(defaultFigure7Config, figure7)},
	{"sec6", "windowed IPC statistics", entry(defaultSection6Config, section6)},
	{"blindspot", "§2.2 counter blind spots vs ProfileMe", entry(defaultBlindSpotConfig, blindSpot)},
	{"ww", "§8 Westcott & White IID-restricted sampling", entry(defaultWWConfig, ww)},
	{"multiproc", "§4.1.3 context register under time-slicing", entry(defaultMultiprocessConfig, multiprocess)},
	{"ablations", "DESIGN.md §5 design choices vs their alternatives", ablations},
	{"edges", "§5.2 CFG and call-graph edge frequencies", edgeFrequencies},
	{"pipestate", "§5.2 pipeline state around an instruction", pipelineState},
}

// entry binds an experiment to its configuration.
func entry[C any, R Result](config func(quick bool) C, run func(C) (R, error)) func(bool) (Result, error) {
	return func(quick bool) (Result, error) {
		res, err := run(config(quick))
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// pick returns the full-size value of a configuration field, or with quick
// the reduced one.
func pick[T any](quick bool, full, reduced T) T {
	if quick {
		return reduced
	}
	return full
}

// checkf returns an error when cond is false.
func checkf(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
