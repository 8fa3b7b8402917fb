package pathprof

import (
	"testing"

	"profileme/internal/asm"
	"profileme/internal/isa"
)

// defaultLimits returns generous but safe search bounds.
func defaultLimits() limits {
	return limits{MaxPaths: 256, MaxSteps: 200_000, MaxLen: 4096}
}

// diamond is a classic if/else merge inside a loop:
//
//	loop:  beq r2, else_     ; cond A
//	       add r3 (then)
//	       br merge
//	else_: add r4
//	merge: sub r1; bne r1, loop
const diamondSrc = `
.proc main
    lda r1, 100(zero)
loop:
    and r2, r1, #1
    beq r2, else_
    add r3, r3, #1
    br  merge
else_:
    add r4, r4, #1
merge:
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`

func TestCFGPreds(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	g := newCFG(prog)

	mergePC, _ := prog.Label("merge")
	preds := g.predsOf(mergePC)
	// merge is reached by fallthrough from else_'s add, and by the br.
	if len(preds) != 2 {
		t.Fatalf("merge preds = %+v", preds)
	}
	kinds := map[predKind]int{}
	for _, p := range preds {
		kinds[p.Kind]++
	}
	if kinds[predFall] != 1 || kinds[predJump] != 1 {
		t.Fatalf("merge pred kinds = %v", kinds)
	}

	elsePC, _ := prog.Label("else_")
	preds = g.predsOf(elsePC)
	if len(preds) != 1 || preds[0].Kind != predCondTaken || !preds[0].TakesBit || !preds[0].BitValue {
		t.Fatalf("else_ preds = %+v", preds)
	}

	loopPC, _ := prog.Label("loop")
	preds = g.predsOf(loopPC)
	// loop: fallthrough from lda, taken bne.
	if len(preds) != 2 {
		t.Fatalf("loop preds = %+v", preds)
	}
}

func TestCFGCallRetEdges(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    jsr ra, sub1
    add r2, r2, #1
    ret (r20)
.endp
.proc sub1
    add r3, r3, #1
    ret (ra)
.endp`)
	g := newCFG(prog)
	sub1PC, _ := prog.Label("sub1")
	calls := g.callPredsOf(sub1PC)
	if len(calls) != 1 || calls[0] != 4 {
		t.Fatalf("call preds = %v", calls)
	}
	// Return site (add at PC 8) is preceded by sub1's ret.
	rets := g.retPredsOf(8)
	if len(rets) != 1 {
		t.Fatalf("ret preds = %v", rets)
	}
	if in, _ := prog.At(rets[0]); in.Op != isa.OpRet {
		t.Fatalf("ret pred not a ret: %v", in)
	}
}

func TestConsistentDiamond(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	g := newCFG(prog)
	rc := newReconstructor(g, defaultLimits())
	mergePC, _ := prog.Label("merge")
	elsePC, _ := prog.Label("else_")
	loopPC, _ := prog.Label("loop")

	// One history bit: the beq direction. Taken (bit=1) => path came
	// through else_.
	paths, trunc := rc.consistent(mergePC, 1, 1, intraproc, nil)
	if trunc {
		t.Fatal("truncated")
	}
	if len(paths) != 1 {
		t.Fatalf("%d paths for taken history", len(paths))
	}
	if !contains(paths[0], elsePC) {
		t.Fatalf("taken path misses else_: %v", paths[0])
	}

	// Not taken (bit=0) => through the then side (br merge).
	paths, _ = rc.consistent(mergePC, 0, 1, intraproc, nil)
	if len(paths) != 1 || contains(paths[0], elsePC) {
		t.Fatalf("not-taken reconstruction wrong: %v", paths)
	}

	// Zero history bits: complete immediately, single trivial path.
	paths, _ = rc.consistent(mergePC, 0, 0, intraproc, nil)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("zero-bit path = %v", paths)
	}

	// Two bits from loop top. Loop's preds are the lda (from the routine
	// entry, consuming no bits) and the taken bne (previous iteration).
	// Both complete — the entry path by the reached-routine-start rule —
	// so the reconstruction is legitimately ambiguous: exactly the
	// failure mode the paper's success metric penalizes.
	paths, _ = rc.consistent(loopPC, 0b11, 2, intraproc, nil)
	if len(paths) != 2 {
		t.Fatalf("loop 2-bit paths = %d, want 2 (iteration + entry)", len(paths))
	}
	long, short := paths[0], paths[1]
	if len(long) < len(short) {
		long, short = short, long
	}
	if short[len(short)-1] != 0 {
		t.Fatalf("short path should end at routine entry: %v", short)
	}
	if !contains(long, elsePC) && !contains(long, elsePC-8) {
		t.Fatalf("long path should traverse the previous iteration: %v", long)
	}
}

func TestConsistentProcEntryStops(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	g := newCFG(prog)
	rc := newReconstructor(g, defaultLimits())
	// From the lda (PC 0, = proc entry), any history: the path is just
	// the entry itself.
	paths, _ := rc.consistent(0, 0b1010, 4, intraproc, nil)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("entry paths = %v", paths)
	}
}

func TestConsistentAmbiguity(t *testing.T) {
	// Two different conditional branches jump to the same label: history
	// bits alone cannot distinguish them.
	prog := asm.MustAssemble(`
.proc main
    lda r1, 10(zero)
a:  beq r2, target
    nop
b:  bne r3, target
    nop
target:
    sub r1, r1, #1
    bne r1, a
    ret
.endp`)
	g := newCFG(prog)
	rc := newReconstructor(g, defaultLimits())
	targetPC, _ := prog.Label("target")
	paths, _ := rc.consistent(targetPC, 1, 1, intraproc, nil)
	if len(paths) < 2 {
		t.Fatalf("expected ambiguity, got %d paths", len(paths))
	}
}

func TestPairConstraintDisambiguates(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    lda r1, 10(zero)
a:  beq r2, target
    nop
b:  bne r3, target
    nop
target:
    sub r1, r1, #1
    bne r1, a
    ret
.endp`)
	g := newCFG(prog)
	rc := newReconstructor(g, defaultLimits())
	targetPC, _ := prog.Label("target")
	aPC, _ := prog.Label("a")

	// Partner at distance 1 is the `a` branch: only the a->target path
	// survives.
	pair := &pairConstraint{PartnerPC: aPC, Distance: 1}
	paths, _ := rc.consistent(targetPC, 1, 1, intraproc, pair)
	if len(paths) != 1 {
		t.Fatalf("pair-pruned paths = %d", len(paths))
	}
	if paths[0][1] != aPC {
		t.Fatalf("wrong survivor: %v", paths[0])
	}
}

func TestMostLikelyFollowsHotEdge(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	g := newCFG(prog)
	mergePC, _ := prog.Label("merge")
	elsePC, _ := prog.Label("else_")

	// Make the else_ side hot.
	g.addEdgeCount(elsePC, mergePC, 90)
	brPC := elsePC - 4 // the br merge instruction
	g.addEdgeCount(brPC, mergePC, 10)

	rc := newReconstructor(g, defaultLimits())
	walk, ok := rc.mostLikely(mergePC, 1, intraproc)
	if !ok {
		t.Fatal("dead end")
	}
	if walk[1] != elsePC {
		t.Fatalf("greedy path took cold edge: %v", walk)
	}
}

func TestInterprocWalksThroughCalls(t *testing.T) {
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    lda r1, 5(zero)
loop:
    jsr ra, leaf
    sub r1, r1, #1
    bne r1, loop
    ret (r20)
.endp
.proc leaf
    add r2, r2, #1
    ret (ra)
.endp`)
	g := newCFG(prog)
	rc := newReconstructor(g, defaultLimits())

	// From the sub after the call, one bit (previous bne taken): the
	// interprocedural path must route through the callee (ret, add,
	// entry) back to the jsr and the bne before it.
	subPC := uint64(12)
	paths, trunc := rc.consistent(subPC, 1, 1, interproc, nil)
	if trunc {
		t.Fatal("truncated")
	}
	if len(paths) != 1 {
		t.Fatalf("interproc paths = %d: %v", len(paths), paths)
	}
	leafEntry, _ := prog.Label("leaf")
	if !contains(paths[0], leafEntry) {
		t.Fatalf("path skips callee: %v", paths[0])
	}

	// Intraprocedural: the call is opaque, so the path steps straight
	// from sub over the jsr. Two candidates complete: through the taken
	// bne (previous iteration) and straight back to the routine entry.
	paths, _ = rc.consistent(subPC, 1, 1, intraproc, nil)
	if len(paths) != 2 {
		t.Fatalf("intraproc paths = %d", len(paths))
	}
	for _, p := range paths {
		if contains(p, leafEntry) {
			t.Fatalf("intraproc path entered callee: %v", p)
		}
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	cfg := DefaultEvalConfig()
	cfg.MaxInst = 0 // run the whole (short) program
	cfg.SampleInterval = 7
	cfg.HistoryLens = []int{1, 4, 8}
	results, err := Evaluate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d mode results", len(results))
	}
	for _, res := range results {
		for li := range cfg.HistoryLens {
			if res.Cells[SchemeHistory][li].Total == 0 {
				t.Fatalf("%v: no samples evaluated at len %d", res.Mode, cfg.HistoryLens[li])
			}
		}
		// The loop sits right at the routine entry, so the entry-path
		// ambiguity caps intraprocedural accuracy well below 1; it must
		// still succeed for the samples past the first branch.
		if r := res.Cells[SchemeHistory][0].Rate(); r < 0.35 {
			t.Fatalf("%v: history rate at len 1 = %.2f", res.Mode, r)
		}
	}
}

func TestEvaluateSchemesOrdering(t *testing.T) {
	// On a program with data-dependent branches, history must beat
	// execution counts, and pairs must not hurt.
	// Five data-dependent diamonds per iteration: a backward window of up
	// to 4 branches usually stays within one iteration, where each
	// diamond's merge is uniquely resolved by its history bit. Paths that
	// cross the loop-head merge (back-edge vs preamble) are inherently
	// ambiguous — the same effect that makes the paper's accuracy fall
	// with history length.
	prog := asm.MustAssemble(`
.proc main
    lda r1, 4000(zero)
    lda r5, 99991(zero)
loop:
    mul r5, r5, #48271
    and r6, r5, #1
    beq r6, d1e
    add r3, r3, #1
    br  d2
d1e:
    add r4, r4, #1
d2:
    and r6, r5, #2
    beq r6, d2e
    add r3, r3, #2
    br  d3
d2e:
    add r4, r4, #2
d3:
    and r6, r5, #4
    beq r6, d3e
    add r3, r3, #3
    br  d4
d3e:
    add r4, r4, #3
d4:
    and r6, r5, #8
    beq r6, d4e
    add r3, r3, #4
    br  d5
d4e:
    add r4, r4, #4
d5:
    and r6, r5, #16
    beq r6, d5e
    add r3, r3, #5
    br  bottom
d5e:
    add r4, r4, #5
bottom:
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	cfg := DefaultEvalConfig()
	cfg.MaxInst = 0
	cfg.SampleInterval = 37
	cfg.HistoryLens = []int{2, 4}
	cfg.Modes = []Mode{intraproc}
	results, err := Evaluate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	for li := range cfg.HistoryLens {
		hist := res.Cells[SchemeHistory][li].Rate()
		exec := res.Cells[SchemeExecCounts][li].Rate()
		pair := res.Cells[SchemeHistoryPair][li].Rate()
		if hist <= exec {
			t.Fatalf("len %d: history %.2f <= exec-counts %.2f", cfg.HistoryLens[li], hist, exec)
		}
		if pair < hist-1e-9 {
			t.Fatalf("len %d: pair %.2f worse than history %.2f", cfg.HistoryLens[li], pair, hist)
		}
	}
}

func TestSchemeAndModeStrings(t *testing.T) {
	if SchemeExecCounts.String() != "exec-counts" || SchemeHistoryPair.String() != "history+pair" {
		t.Fatal("scheme names")
	}
	if intraproc.String() == interproc.String() {
		t.Fatal("mode names")
	}
}

func TestPCRing(t *testing.T) {
	r := newPCRing(4)
	if _, ok := r.back(0); ok {
		t.Fatal("empty ring")
	}
	for i := uint64(1); i <= 6; i++ {
		r.push(i)
	}
	if pc, ok := r.back(0); !ok || pc != 6 {
		t.Fatalf("back(0) = %d", pc)
	}
	if pc, ok := r.back(3); !ok || pc != 3 {
		t.Fatalf("back(3) = %d", pc)
	}
	if _, ok := r.back(4); ok {
		t.Fatal("overwritten entry served")
	}
}

func TestPathEqual(t *testing.T) {
	if !(path{1, 2}).equal(path{1, 2}) {
		t.Fatal("equal paths")
	}
	if (path{1, 2}).equal(path{1}) || (path{1, 2}).equal(path{1, 3}) {
		t.Fatal("unequal paths")
	}
}

func TestLimitsTruncation(t *testing.T) {
	prog := asm.MustAssemble(diamondSrc)
	g := newCFG(prog)
	mergePC, _ := prog.Label("merge")

	// A step budget of 1 cannot finish anything: must report truncation.
	rc := newReconstructor(g, limits{MaxPaths: 8, MaxSteps: 1, MaxLen: 4096})
	_, trunc := rc.consistent(mergePC, 1, 4, intraproc, nil)
	if !trunc {
		t.Fatal("step budget exhaustion not reported")
	}

	// MaxLen 2 dead-ends every path longer than two instructions.
	rc = newReconstructor(g, limits{MaxPaths: 8, MaxSteps: 1000, MaxLen: 2})
	paths, trunc := rc.consistent(mergePC, 0b1111, 4, intraproc, nil)
	if trunc || len(paths) != 0 {
		t.Fatalf("short MaxLen: paths=%d trunc=%v", len(paths), trunc)
	}

	// mostLikely with a tiny budget dead-ends rather than spinning.
	if _, ok := rc.mostLikely(mergePC, 8, intraproc); ok {
		t.Fatal("MostLikely ignored MaxLen")
	}
}

func TestConsistentRecursionBounded(t *testing.T) {
	// Interprocedural walk through a recursive procedure: the search
	// must stay bounded (complete or truncate, never hang).
	prog := asm.MustAssemble(`
.proc main
    add r20, ra, #0
    lda r1, 6(zero)
    jsr ra, fact
    ret (r20)
.endp
.proc fact
    bne r1, recurse
    lda r2, 1(zero)
    ret (ra)
recurse:
    sub sp, sp, #16
    st  ra, 0(sp)
    sub r1, r1, #1
    jsr ra, fact
    ld  ra, 0(sp)
    add sp, sp, #16
    mul r2, r2, #2
    ret (ra)
.endp`)
	g := newCFG(prog)
	rc := newReconstructor(g, limits{MaxPaths: 16, MaxSteps: 5000, MaxLen: 256})
	factPC, _ := prog.Label("fact")
	paths, _ := rc.consistent(factPC+4, 0b10101010, 8, interproc, nil)
	// Any outcome is acceptable as long as it terminates; sanity-check
	// path shapes when found.
	for _, p := range paths {
		if len(p) > 256 {
			t.Fatalf("path exceeds MaxLen: %d", len(p))
		}
	}
}
