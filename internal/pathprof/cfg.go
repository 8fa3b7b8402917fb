// Package pathprof implements the paper's §5.3 statistical path profiling:
// given a sampled instruction's PC and the global branch history register
// captured in its ProfileMe record, walk backward through the program's
// control-flow graph to find the execution path segments consistent with
// the recorded branch directions. Three reconstruction schemes are
// provided, matching Figure 6: execution counts only, history bits, and
// history bits plus the second PC of a paired sample.
package pathprof

import (
	"profileme/internal/isa"
)

// predKind classifies how control flowed from a predecessor instruction to
// the current one in the dynamic fetch stream.
type predKind uint8

// Predecessor kinds.
const (
	// predFall: the previous instruction fell through (non-control, or a
	// call returning... no — calls are predRet sites; this is plain
	// sequential flow).
	predFall predKind = iota
	// predCondNotTaken: the previous instruction is a conditional branch
	// that fell through (consumes a history bit, value 0).
	predCondNotTaken
	// predCondTaken: a conditional branch jumped here (consumes a history
	// bit, value 1).
	predCondTaken
	// predJump: an unconditional direct branch jumped here.
	predJump
	// predCall: a call instruction jumped here (this PC is a procedure
	// entry).
	predCall
	// predRet: a return instruction jumped here (this PC is a return
	// site; the predecessor is a ret in the called procedure).
	predRet
	// predIndirect: an indirect jump observed (dynamically) to land here.
	predIndirect
)

// pred is one backward-step candidate.
type pred struct {
	PC       uint64 // predecessor instruction
	Kind     predKind
	TakesBit bool // consumes a history bit
	BitValue bool // required value of that bit (taken = true)
}

// edge is a dynamic control-flow edge (from the instruction at From to the
// instruction at To, in fetch order).
type edge struct{ From, To uint64 }

// cfg holds the static control-flow structure of a program plus observed
// dynamic edges for indirect transfers, preprocessed for backward walking.
type cfg struct {
	prog *isa.Program
	// preds[pc/4] lists dynamic-stream predecessors of each instruction,
	// excluding interprocedural edges, which are resolved per mode.
	preds [][]pred
	// callPreds[pc/4] lists call instructions targeting this PC.
	callPreds [][]uint64
	// retPreds[pc/4] lists the return instructions that can precede this
	// PC (the rets of the procedure called by the jsr at pc-4).
	retPreds [][]uint64
	// edgeCount holds dynamic edge execution counts (for the
	// execution-counts scheme); populated by AddEdgeCounts.
	edgeCount map[edge]uint64
}

// newCFG builds the static CFG for prog.
func newCFG(prog *isa.Program) *cfg {
	n := prog.Len()
	g := &cfg{
		prog:      prog,
		preds:     make([][]pred, n),
		callPreds: make([][]uint64, n),
		retPreds:  make([][]uint64, n),
		edgeCount: make(map[edge]uint64),
	}

	// Collect the return instructions of each procedure.
	retsOf := make(map[string][]uint64)
	for _, pr := range prog.Procs {
		for pc := pr.Start; pc < pr.End; pc += isa.InstBytes {
			if in, ok := prog.At(pc); ok && in.Op.Class() == isa.ClassRet {
				retsOf[pr.Name] = append(retsOf[pr.Name], pc)
			}
		}
	}

	idx := func(pc uint64) int { return int(pc / isa.InstBytes) }

	for i := 0; i < n; i++ {
		pc := uint64(i) * isa.InstBytes
		in, _ := prog.At(pc)

		// Sequential successor (pc+4) predecessors.
		nextPC := pc + isa.InstBytes
		if int(nextPC/isa.InstBytes) < n {
			j := idx(nextPC)
			switch in.Op.Class() {
			case isa.ClassBranch:
				g.preds[j] = append(g.preds[j],
					pred{PC: pc, Kind: predCondNotTaken, TakesBit: true, BitValue: false})
			case isa.ClassJump, isa.ClassJmpInd, isa.ClassRet:
				// No fallthrough.
			case isa.ClassCall:
				// nextPC is a return site: preceded dynamically by the
				// callee's returns.
				if callee := prog.ProcAt(in.Target); callee != nil {
					for _, retPC := range retsOf[callee.Name] {
						g.retPreds[j] = append(g.retPreds[j], retPC)
					}
				}
			default:
				g.preds[j] = append(g.preds[j], pred{PC: pc, Kind: predFall})
			}
		}

		// Direct-transfer target predecessors.
		switch in.Op.Class() {
		case isa.ClassBranch:
			j := idx(in.Target)
			g.preds[j] = append(g.preds[j],
				pred{PC: pc, Kind: predCondTaken, TakesBit: true, BitValue: true})
		case isa.ClassJump:
			j := idx(in.Target)
			g.preds[j] = append(g.preds[j], pred{PC: pc, Kind: predJump})
		case isa.ClassCall:
			j := idx(in.Target)
			g.callPreds[j] = append(g.callPreds[j], pc)
		}
	}
	return g
}

// addIndirectEdge registers an observed indirect-jump edge (a static tool
// would get these from relocation info or a BTB dump; the experiment
// harvests them from the trace). Return edges are handled structurally and
// must not be added here.
func (g *cfg) addIndirectEdge(from, to uint64) {
	j := int(to / isa.InstBytes)
	if j >= len(g.preds) {
		return
	}
	for _, p := range g.preds[j] {
		if p.PC == from && p.Kind == predIndirect {
			return
		}
	}
	g.preds[j] = append(g.preds[j], pred{PC: from, Kind: predIndirect})
}

// addEdgeCount accumulates a dynamic edge execution count for the
// execution-counts reconstruction scheme.
func (g *cfg) addEdgeCount(from, to uint64, n uint64) {
	g.edgeCount[edge{From: from, To: to}] += n
}

// edgeCountOf returns the recorded dynamic count of an edge.
func (g *cfg) edgeCountOf(from, to uint64) uint64 {
	return g.edgeCount[edge{From: from, To: to}]
}

// predsOf returns the intraprocedural-stream predecessors of pc (falls,
// conditional edges, direct jumps, observed indirect jumps).
func (g *cfg) predsOf(pc uint64) []pred {
	i := int(pc / isa.InstBytes)
	if i >= len(g.preds) {
		return nil
	}
	return g.preds[i]
}

// callPredsOf returns the call instructions targeting pc.
func (g *cfg) callPredsOf(pc uint64) []uint64 {
	i := int(pc / isa.InstBytes)
	if i >= len(g.callPreds) {
		return nil
	}
	return g.callPreds[i]
}

// retPredsOf returns the return instructions that can dynamically precede pc
// (pc is a return site).
func (g *cfg) retPredsOf(pc uint64) []uint64 {
	i := int(pc / isa.InstBytes)
	if i >= len(g.retPreds) {
		return nil
	}
	return g.retPreds[i]
}
