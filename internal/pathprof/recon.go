package pathprof

import (
	"profileme/internal/isa"
)

// Mode selects intra- or inter-procedural reconstruction (the two panels
// of Figure 6).
type Mode uint8

const (
	// intraproc stops at the enclosing procedure's entry and treats calls
	// as opaque sequential instructions (the trace-scheduling view).
	intraproc Mode = iota
	// interproc walks through call sites and callee returns; a path is
	// complete only when it has consumed the full branch history.
	interproc
)

// String returns the mode name.
func (m Mode) String() string {
	if m == intraproc {
		return "intraprocedural"
	}
	return "interprocedural"
}

// limits bounds the backward search.
type limits struct {
	MaxPaths int // stop enumerating after this many complete paths
	MaxSteps int // total backward expansions before giving up
	MaxLen   int // maximum path length in instructions
}

// path is an execution path segment in backward order: path[0] is the
// sampled instruction, path[1] the instruction fetched just before it, and
// so on.
type path []uint64

// equal reports whether two paths are identical.
func (p path) equal(q path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// pairConstraint carries the paired-sample pruning information: the
// partner instruction was fetched Distance instructions before the sampled
// one.
type pairConstraint struct {
	PartnerPC uint64
	Distance  int
}

// reconstructor runs backward path searches over a CFG.
type reconstructor struct {
	g   *cfg
	lim limits
}

// newReconstructor returns a reconstructor with the given limits.
func newReconstructor(g *cfg, lim limits) *reconstructor {
	return &reconstructor{g: g, lim: lim}
}

// state is one node of the backward DFS.
type state struct {
	pc       uint64
	bitsUsed int
	path     path
}

// consistent enumerates the path segments ending at pc that are consistent
// with the low histLen bits of hist (bit 0 = most recent branch). pair,
// when non-nil, prunes paths whose instruction at the partner distance is
// not the partner PC. truncated reports the search hit a limit.
//
// A path is complete when histLen conditional branches have been consumed,
// or — in intraproc mode — when the walk reaches the start of the
// procedure containing pc.
func (r *reconstructor) consistent(pc uint64, hist uint64, histLen int, mode Mode, pair *pairConstraint) (paths []path, truncated bool) {
	proc := r.g.prog.ProcAt(pc)
	steps := 0
	stack := []state{{pc: pc, path: path{pc}}}

	for len(stack) > 0 {
		if len(paths) >= r.lim.MaxPaths || steps >= r.lim.MaxSteps {
			return paths, true
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		steps++

		if s.bitsUsed >= histLen {
			paths = appendIfPairOK(paths, s.path, pair)
			continue
		}
		if mode == intraproc && proc != nil && s.pc == proc.Start {
			paths = appendIfPairOK(paths, s.path, pair)
			continue
		}
		if len(s.path) >= r.lim.MaxLen {
			continue // dead end: too long
		}

		for _, pr := range r.expand(s.pc, mode, proc) {
			if pr.TakesBit {
				want := (hist >> uint(s.bitsUsed)) & 1
				got := uint64(0)
				if pr.BitValue {
					got = 1
				}
				if want != got {
					continue
				}
			}
			np := make(path, len(s.path)+1)
			copy(np, s.path)
			np[len(s.path)] = pr.PC
			nb := s.bitsUsed
			if pr.TakesBit {
				nb++
			}
			stack = append(stack, state{pc: pr.PC, bitsUsed: nb, path: np})
		}
	}
	return paths, false
}

// expand lists the backward-step candidates of pc under the given mode.
func (r *reconstructor) expand(pc uint64, mode Mode, proc *isa.Proc) []pred {
	var out []pred
	out = append(out, r.g.predsOf(pc)...)

	prevPC := pc - isa.InstBytes
	prevIsCall := false
	if pc >= isa.InstBytes {
		if in, ok := r.g.prog.At(prevPC); ok && in.Op.Class() == isa.ClassCall {
			prevIsCall = true
		}
	}

	switch mode {
	case intraproc:
		// Calls are opaque: step straight back over the jsr.
		if prevIsCall {
			out = append(out, pred{PC: prevPC, Kind: predFall})
		}
		// Stay within the procedure.
		if proc != nil {
			kept := out[:0]
			for _, p := range out {
				if proc.Contains(p.PC) {
					kept = append(kept, p)
				}
			}
			out = kept
		}
	case interproc:
		// Return sites continue inside the callee.
		for _, retPC := range r.g.retPredsOf(pc) {
			out = append(out, pred{PC: retPC, Kind: predRet})
		}
		// Procedure entries continue at their callers.
		for _, callPC := range r.g.callPredsOf(pc) {
			out = append(out, pred{PC: callPC, Kind: predCall})
		}
	}
	return out
}

func appendIfPairOK(paths []path, p path, pair *pairConstraint) []path {
	if pair != nil && pair.Distance >= 0 && pair.Distance < len(p) {
		if p[pair.Distance] != pair.PartnerPC {
			return paths
		}
	}
	return append(paths, p)
}

// mostLikely reconstructs the single most likely path by greedily
// following the highest-execution-count predecessor at every step,
// ignoring history bits (Figure 6's "Execution counts" scheme). It stops
// under the same completion rules (branch budget, or procedure entry in
// intraproc mode). ok is false when the walk dead-ends first.
func (r *reconstructor) mostLikely(pc uint64, histLen int, mode Mode) (path, bool) {
	proc := r.g.prog.ProcAt(pc)
	walk := path{pc}
	bits := 0
	cur := pc
	for bits < histLen {
		if mode == intraproc && proc != nil && cur == proc.Start {
			return walk, true
		}
		if len(walk) >= r.lim.MaxLen {
			return walk, false
		}
		var best *pred
		var bestCount uint64
		for _, pr := range r.expand(cur, mode, proc) {
			pr := pr
			c := r.g.edgeCountOf(pr.PC, cur)
			if best == nil || c > bestCount || (c == bestCount && pr.PC < best.PC) {
				best, bestCount = &pr, c
			}
		}
		if best == nil {
			return walk, false
		}
		if best.TakesBit {
			bits++
		}
		walk = append(walk, best.PC)
		cur = best.PC
	}
	return walk, true
}
