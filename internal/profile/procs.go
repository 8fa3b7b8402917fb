package profile

import (
	"fmt"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/isa"
)

// procAccum aggregates a procedure's samples (the paper's §3 "aggregate
// information ... over a procedure, or a smaller unit such as a loop" —
// per-instruction data rolls up for free).
type procAccum struct {
	Name    string
	Samples uint64
	Retired uint64
	DMiss   uint64
	IMiss   uint64
	Mispred uint64
	// InProgressSum/Count give the mean in-progress latency of the
	// procedure's sampled instructions.
	InProgressSum   int64
	InProgressCount uint64
	// EstRetired is Retired × S × the loss correction, as per PC.
	EstRetired float64
}

// meanLatency returns the procedure's mean fetch->retire-ready latency.
func (p *procAccum) meanLatency() float64 {
	if p.InProgressCount == 0 {
		return 0
	}
	return float64(p.InProgressSum) / float64(p.InProgressCount)
}

// byProc rolls the per-PC database up to procedure granularity using the
// program's procedure table; PCs outside any procedure aggregate under
// "(none)". Results are ordered by sample count, descending.
func byProc(db *DB, prog *isa.Program) []procAccum {
	accs := make(map[string]*procAccum)
	get := func(name string) *procAccum {
		a, ok := accs[name]
		if !ok {
			a = &procAccum{Name: name}
			accs[name] = a
		}
		return a
	}
	for _, pc := range db.PCs() {
		src := db.Get(pc)
		name := "(none)"
		if pr := prog.ProcAt(pc); pr != nil {
			name = pr.Name
		}
		a := get(name)
		a.Samples += src.Samples
		a.Retired += src.Retired()
		a.DMiss += src.EventCount(core.EvDCacheMiss)
		a.IMiss += src.EventCount(core.EvICacheMiss)
		a.Mispred += src.EventCount(core.EvMispredict)
		a.InProgressSum += src.InProgressSum
		a.InProgressCount += src.InProgressCount
	}
	out := make([]procAccum, 0, len(accs))
	for _, a := range accs {
		a.EstRetired = estimateCount(a.Retired, db.recordInterval()) * db.lossCorrection()
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ProcReport renders the per-procedure rollup.
func ProcReport(db *DB, prog *isa.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %9s %7s %7s %7s %9s\n",
		"procedure", "samples", "est.ret", "ret%", "dmiss%", "mispr%", "avg-lat")
	for _, a := range byProc(db, prog) {
		fmt.Fprintf(&b, "%-14s %8d %9.0f %6.1f%% %6.1f%% %6.1f%% %9.1f\n",
			a.Name, a.Samples, a.EstRetired,
			100*RateEstimate(a.Retired, a.Samples),
			100*RateEstimate(a.DMiss, a.Samples),
			100*RateEstimate(a.Mispred, a.Samples),
			a.meanLatency())
	}
	return b.String()
}
