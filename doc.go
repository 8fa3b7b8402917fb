// Package profileme is a from-scratch Go reproduction of "ProfileMe:
// Hardware Support for Instruction-Level Profiling on Out-of-Order
// Processors" (Dean, Hicks, Waldspurger, Weihl, Chrysos; MICRO-30, 1997).
//
// The library lives under internal/ as one package per subsystem:
//
//   - internal/core — the ProfileMe hardware itself (§4): random
//     instruction selection, the ProfileMe tag, Profile Registers, paired
//     sampling and interrupt buffering.
//   - internal/cpu — the out-of-order Alpha-21264-flavoured timing
//     pipeline the hardware plugs into; internal/mem, internal/bpred,
//     internal/isa, internal/asm and internal/sim are its substrates.
//   - internal/profile — the profiling software (§5): sample database,
//     frequency estimators, paired-sample concurrency analysis.
//   - internal/pathprof — path reconstruction from branch history (§5.3).
//   - internal/counters — the baseline event-counter hardware (§2.2).
//   - internal/workload — the synthetic SPECint95-flavoured benchmark
//     suite and the per-figure microbenchmarks.
//   - internal/experiments — one harness per table, figure and claim of
//     the paper.
//
// The executables are cmd/pmsim (run a workload under the profiler) and
// cmd/figures (regenerate every table and figure). The walkthroughs are
// Example tests whose printed output go test checks: ExampleRunShard and
// ExampleRunShard_missAddresses (internal/runner), ExampleDB_WastedSlots
// (internal/profile), and the package examples of internal/pathprof and
// internal/pgo. `go test ./internal/experiments` runs every
// experiment at its reduced configuration and asserts its shape check,
// the DESIGN.md §5 ablations included.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package profileme
