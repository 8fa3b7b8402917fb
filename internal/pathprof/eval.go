package pathprof

import (
	"fmt"

	"profileme/internal/isa"
	"profileme/internal/sim"
	"profileme/internal/stats"
)

// Scheme identifies a path reconstruction strategy (Figure 6's three
// curves).
type Scheme uint8

// Reconstruction schemes.
const (
	SchemeExecCounts  Scheme = iota // execution frequencies only
	SchemeHistory                   // global branch history bits
	SchemeHistoryPair               // history bits + paired-sample PC
	NumSchemes        = iota
)

var schemeNames = [...]string{"exec-counts", "history", "history+pair"}

// String returns the scheme name.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Cell is one success-rate measurement.
type Cell struct {
	Success uint64
	Total   uint64
}

// Rate returns the success fraction, or 0 when empty.
func (c Cell) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Success) / float64(c.Total)
}

// EvalConfig parameterizes the Figure 6 experiment.
type EvalConfig struct {
	MaxInst        uint64 // trace length (0 = run to completion)
	SampleInterval int    // mean instructions between samples
	PairWindow     int    // intra-pair distance drawn uniform [1, PairWindow]
	HistoryLens    []int  // history lengths to evaluate
	Modes          []Mode
	Seed           uint64
	Limits         limits
}

// DefaultEvalConfig mirrors the paper's setup: pair distance 1-50,
// history lengths covering the 8-12 bits of 1997 hardware and beyond.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{
		MaxInst:        2_000_000,
		SampleInterval: 500,
		PairWindow:     50,
		HistoryLens:    []int{1, 2, 4, 6, 8, 10, 12, 14, 16},
		Modes:          []Mode{intraproc, interproc},
		Seed:           1,
		Limits:         limits{MaxPaths: 8, MaxSteps: 50_000, MaxLen: 4096},
	}
}

// ModeResult holds the success rates for one mode: Cells[scheme][i]
// corresponds to HistoryLens[i].
type ModeResult struct {
	Mode        Mode
	HistoryLens []int
	Cells       [NumSchemes][]Cell
}

type evalSample struct {
	pc          uint64
	hist        uint64
	partnerPC   uint64
	partnerDist int
	hasPartner  bool
}

// Evaluate runs the full path-reconstruction experiment: trace the
// program, sample instructions with their branch histories and pair
// partners, and measure each scheme's reconstruction success rate at each
// history length.
func Evaluate(prog *isa.Program, cfg EvalConfig) ([]*ModeResult, error) {
	if len(cfg.HistoryLens) == 0 || len(cfg.Modes) == 0 {
		return nil, fmt.Errorf("pathprof: empty history lengths or modes")
	}
	maxLen := 0
	for _, l := range cfg.HistoryLens {
		if l > maxLen {
			maxLen = l
		}
		if l > 64 {
			return nil, fmt.Errorf("pathprof: history length %d > 64", l)
		}
	}

	g := newCFG(prog)
	rng := stats.NewRNG(cfg.Seed)

	// Pass 1: stream the trace once. Collect dynamic edge counts,
	// indirect-jump edges, samples (PC + history + partner), and keep a
	// ring of recent PCs for ground-truth paths.
	ring := newPCRing(cfg.Limits.MaxLen * 4)
	var samples []evalSample
	var truth [][][]path // per sample, per mode, per history length

	var hist uint64
	var prevPC uint64
	var prevValid bool
	var prevClass isa.Class
	var callStack []uint64
	countdown := rng.Geometric(float64(cfg.SampleInterval))

	m := sim.New(prog)
	var executed uint64
	for !m.Halted() && (cfg.MaxInst == 0 || executed < cfg.MaxInst) {
		rec, ok, err := m.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		executed++

		if prevValid {
			g.addEdgeCount(prevPC, rec.PC, 1)
			if prevClass == isa.ClassJmpInd {
				g.addIndirectEdge(prevPC, rec.PC)
			}
			// Track call returns so the intraprocedural greedy walk has
			// jsr -> return-site edge counts.
			if prevClass == isa.ClassRet && len(callStack) > 0 &&
				rec.PC == callStack[len(callStack)-1]+isa.InstBytes {
				g.addEdgeCount(callStack[len(callStack)-1], rec.PC, 1)
				callStack = callStack[:len(callStack)-1]
			}
		}
		if rec.Inst.Op.Class() == isa.ClassCall {
			if len(callStack) < 1024 {
				callStack = append(callStack, rec.PC)
			}
		}

		countdown--
		if countdown <= 0 {
			countdown = rng.Geometric(float64(cfg.SampleInterval))
			s := evalSample{pc: rec.PC, hist: hist}
			if cfg.PairWindow > 0 {
				d := rng.IntRange(1, cfg.PairWindow)
				if pc, ok := ring.back(d - 1); ok { // partner fetched d before
					s.partnerPC = pc
					s.partnerDist = d
					s.hasPartner = true
				}
			}
			samples = append(samples, s)
			perMode := make([][]path, len(cfg.Modes))
			for mi, mode := range cfg.Modes {
				perMode[mi] = actualPaths(prog, ring, rec.PC, cfg.HistoryLens, mode)
			}
			truth = append(truth, perMode)
		}

		ring.push(rec.PC)
		if rec.Inst.Op.IsConditional() {
			hist <<= 1
			if rec.Taken {
				hist |= 1
			}
		}
		prevPC, prevValid, prevClass = rec.PC, true, rec.Inst.Op.Class()
	}
	// Pass 2: reconstruct.
	rc := newReconstructor(g, cfg.Limits)
	results := make([]*ModeResult, len(cfg.Modes))
	for mi, mode := range cfg.Modes {
		res := &ModeResult{Mode: mode, HistoryLens: cfg.HistoryLens}
		for s := range res.Cells {
			res.Cells[s] = make([]Cell, len(cfg.HistoryLens))
		}
		results[mi] = res

		for si, s := range samples {
			actual := truth[si][mi]
			for li, hl := range cfg.HistoryLens {
				want := actual[li]
				if want == nil {
					continue // ground truth unavailable (ring too short)
				}

				// Execution counts.
				res.Cells[SchemeExecCounts][li].Total++
				if got, ok := rc.mostLikely(s.pc, hl, mode); ok && got.equal(want) {
					res.Cells[SchemeExecCounts][li].Success++
				}

				// History bits (one enumeration serves both history
				// schemes; the pair filter applies post hoc).
				paths, truncated := rc.consistent(s.pc, s.hist, hl, mode, nil)
				res.Cells[SchemeHistory][li].Total++
				if !truncated && len(paths) == 1 && paths[0].equal(want) {
					res.Cells[SchemeHistory][li].Success++
				}

				res.Cells[SchemeHistoryPair][li].Total++
				if !truncated {
					filtered := paths
					if s.hasPartner && pairApplicable(prog, mode, s.pc, s.partnerPC) {
						pair := &pairConstraint{PartnerPC: s.partnerPC, Distance: s.partnerDist}
						filtered = filterPair(paths, pair, mode)
					}
					if len(filtered) == 1 && filtered[0].equal(want) {
						res.Cells[SchemeHistoryPair][li].Success++
					}
				}
			}
		}
	}
	return results, nil
}

// pairApplicable reports whether the pair constraint can be used: in
// intraprocedural mode the partner must be in the same procedure (paths
// never contain other procedures' PCs).
func pairApplicable(prog *isa.Program, mode Mode, samplePC, partnerPC uint64) bool {
	if mode == interproc {
		return true
	}
	a, b := prog.ProcAt(samplePC), prog.ProcAt(partnerPC)
	return a != nil && b != nil && a.Name == b.Name
}

// filterPair applies the paired-sample pruning rule. In interprocedural
// mode the reconstructed path mirrors the raw fetch stream, so the partner
// must appear at its exact fetch distance; in intraprocedural mode the
// path is the procedure-projected stream, so containment is required
// instead.
func filterPair(paths []path, pair *pairConstraint, mode Mode) []path {
	var out []path
	for _, p := range paths {
		if mode == interproc {
			if pair.Distance < len(p) && p[pair.Distance] != pair.PartnerPC {
				continue
			}
		} else if len(p) > pair.Distance && !contains(p, pair.PartnerPC) {
			continue
		}
		out = append(out, p)
	}
	return out
}

func contains(p path, pc uint64) bool {
	for _, x := range p {
		if x == pc {
			return true
		}
	}
	return false
}

// actualPaths derives the ground-truth backward path for each history
// length from the recent-PC ring, under the mode's stopping and
// projection rules. Entries are nil when the ring does not reach far
// enough.
func actualPaths(prog *isa.Program, ring *pcRing, samplePC uint64, lens []int, mode Mode) []path {
	out := make([]path, len(lens))
	maxLen := 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	proc := prog.ProcAt(samplePC)

	walk := path{samplePC}
	bits := 0
	// next result slot to fill, in ascending history-length order
	done := make([]bool, len(lens))
	fill := func() {
		for i, l := range lens {
			if done[i] {
				continue
			}
			if bits >= l {
				out[i] = append(path(nil), walk...)
				done[i] = true
			}
		}
	}
	fillEntry := func() {
		for i := range lens {
			if !done[i] {
				out[i] = append(path(nil), walk...)
				done[i] = true
			}
		}
	}
	fill()

	for back := 0; ; back++ {
		if mode == intraproc && proc != nil && walk[len(walk)-1] == proc.Start {
			fillEntry()
			break
		}
		allDone := true
		for _, d := range done {
			if !d {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		pc, ok := ring.back(back)
		if !ok {
			break // ring exhausted: remaining lengths stay nil
		}
		if mode == intraproc && (proc == nil || !proc.Contains(pc)) {
			continue // project onto the sample's procedure
		}
		walk = append(walk, pc)
		if in, ok := prog.At(pc); ok && in.Op.IsConditional() {
			bits++
		}
		fill()
	}
	return out
}

// pcRing holds the most recent PCs of the fetch stream.
type pcRing struct {
	buf   []uint64
	count uint64
}

func newPCRing(n int) *pcRing { return &pcRing{buf: make([]uint64, n)} }

func (r *pcRing) push(pc uint64) {
	r.buf[r.count%uint64(len(r.buf))] = pc
	r.count++
}

// back returns the PC pushed n entries ago (0 = most recent push).
func (r *pcRing) back(n int) (uint64, bool) {
	if uint64(n) >= r.count || n >= len(r.buf) {
		return 0, false
	}
	return r.buf[(r.count-1-uint64(n))%uint64(len(r.buf))], true
}
