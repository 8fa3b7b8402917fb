package profile

import (
	"fmt"
	"sort"
	"strings"

	"profileme/internal/core"
	"profileme/internal/isa"
)

// EdgeProfile estimates control-flow edge execution frequencies from
// paired samples (§5.2: "Paired samples can also be used to measure edge
// frequencies of a program's control-flow and call graphs"). A pair whose
// realized intra-pair fetch distance is exactly 1 is a direct observation
// of one dynamic edge — the two instructions were fetched back to back.
// Since the minor interval is uniform on [1, W], a fraction 1/W of pairs
// land on each distance, so an edge observed k times was executed about
// k*W*S times.
type EdgeProfile struct {
	// S and W as in DB: mean sampling interval and pairing window.
	S float64
	W int

	edges map[edge]uint64
	pairs uint64 // pairs seen (any distance)
	hits  uint64 // pairs at distance 1
}

// edge is one observed control-flow transition in fetch order.
type edge struct{ From, To uint64 }

// NewEdgeProfile returns an empty edge profile for a sampling
// configuration.
func NewEdgeProfile(s float64, w int) *EdgeProfile {
	return &EdgeProfile{S: s, W: w, edges: make(map[edge]uint64)}
}

// Add folds a sample into the profile. Only paired samples at fetch
// distance 1 whose first record carries an instruction contribute.
func (e *EdgeProfile) Add(s core.Sample) {
	if !s.Paired {
		return
	}
	e.pairs++
	if s.FetchDistance != 1 {
		return
	}
	if s.First.Events.Has(core.EvNoInstruction) || s.Second.Events.Has(core.EvNoInstruction) {
		return
	}
	e.hits++
	e.edges[edge{From: s.First.PC, To: s.Second.PC}]++
}

// Handler adapts the profile to a Pipeline.AttachProfileMe handler.
func (e *EdgeProfile) Handler() func([]core.Sample) {
	return func(ss []core.Sample) {
		for _, s := range ss {
			e.Add(s)
		}
	}
}

// Observations returns the raw distance-1 observation count for an edge.
func (e *EdgeProfile) Observations(from, to uint64) uint64 {
	return e.edges[edge{From: from, To: to}]
}

// Estimate returns the estimated execution count of the edge.
func (e *EdgeProfile) Estimate(from, to uint64) float64 {
	return float64(e.edges[edge{From: from, To: to}]) * e.S * float64(e.W)
}

// Pairs returns the number of paired samples consumed and how many were
// at distance 1.
func (e *EdgeProfile) Pairs() (pairs, distanceOne uint64) { return e.pairs, e.hits }

// edgeCount is one profiled edge with its estimate.
type edgeCount struct {
	Edge     edge
	Observed uint64
	Estimate float64
}

// hot returns the n most-observed edges, descending.
func (e *EdgeProfile) hot(n int) []edgeCount {
	out := make([]edgeCount, 0, len(e.edges))
	for edge, k := range e.edges {
		out = append(out, edgeCount{Edge: edge, Observed: k, Estimate: float64(k) * e.S * float64(e.W)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Observed != out[j].Observed {
			return out[i].Observed > out[j].Observed
		}
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// branchBias estimates the taken fraction of the conditional branch at
// pc from the two outgoing edges' observations. ok is false when the
// branch was never observed at distance 1.
func (e *EdgeProfile) branchBias(pc, takenTarget uint64) (takenFrac float64, ok bool) {
	taken := e.edges[edge{From: pc, To: takenTarget}]
	fall := e.edges[edge{From: pc, To: pc + isa.InstBytes}]
	if taken+fall == 0 {
		return 0, false
	}
	return float64(taken) / float64(taken+fall), true
}

// callEdge is one estimated call-graph edge (§5.2: paired samples measure
// "edge frequencies of a program's control-flow and call graphs").
type callEdge struct {
	CallerProc string
	CalleeProc string
	Observed   uint64
	Estimate   float64
}

// callGraph aggregates the distance-1 edges whose destination is a
// procedure entry into caller-procedure -> callee-procedure counts.
func (e *EdgeProfile) callGraph(prog *isa.Program) []callEdge {
	agg := make(map[[2]string]uint64)
	for edge, k := range e.edges {
		callee := prog.ProcAt(edge.To)
		if callee == nil || callee.Start != edge.To {
			continue // not a procedure entry
		}
		if in, ok := prog.At(edge.From); !ok || in.Op.Class() != isa.ClassCall {
			continue // fall-ins and jumps are not calls
		}
		caller := prog.ProcAt(edge.From)
		name := "(none)"
		if caller != nil {
			name = caller.Name
		}
		agg[[2]string{name, callee.Name}] += k
	}
	out := make([]callEdge, 0, len(agg))
	for key, k := range agg {
		out = append(out, callEdge{
			CallerProc: key[0], CalleeProc: key[1],
			Observed: k, Estimate: float64(k) * e.S * float64(e.W),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Observed != out[j].Observed {
			return out[i].Observed > out[j].Observed
		}
		if out[i].CallerProc != out[j].CallerProc {
			return out[i].CallerProc < out[j].CallerProc
		}
		return out[i].CalleeProc < out[j].CalleeProc
	})
	return out
}

// Report renders the hottest edges; prog may be nil.
func (e *EdgeProfile) Report(prog *isa.Program, n int) string {
	var b strings.Builder
	pairs, hits := e.Pairs()
	fmt.Fprintf(&b, "edge profile: %d pairs, %d at distance 1 (%.1f%%), %d distinct edges\n",
		pairs, hits, 100*float64(hits)/float64(maxU64(1, pairs)), len(e.edges))
	sym := func(pc uint64) string {
		if prog != nil {
			return prog.SymbolFor(pc)
		}
		return fmt.Sprintf("%#x", pc)
	}
	for _, ec := range e.hot(n) {
		fmt.Fprintf(&b, "  %-16s -> %-16s %6d obs  ~%.0f executions\n",
			sym(ec.Edge.From), sym(ec.Edge.To), ec.Observed, ec.Estimate)
	}
	return b.String()
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
