// Package experiments implements one self-contained harness per table and
// figure of the paper's evaluation, so that cmd/figures, the examples and
// the root-level benchmarks all regenerate the same results from the same
// code. Every experiment returns a structured result plus a text rendering
// of the paper's rows/series, and — where the paper's claim is a shape
// rather than a number — a Check method that verifies the shape holds.
package experiments

import (
	"fmt"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/sim"
)

// runPipeline wires a program, a ProfileMe unit (may be nil) and a config
// together and runs to completion.
func runPipeline(prog *isa.Program, cfg cpu.Config, unit *core.Unit, handler func([]core.Sample)) (cpu.Result, *cpu.Pipeline, error) {
	p, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	if unit != nil {
		p.AttachProfileMe(unit, handler)
	}
	res, err := p.Run(0)
	return res, p, err
}

// checkf returns an error when cond is false.
func checkf(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
