package workload

import (
	"fmt"
	"strings"

	"profileme/internal/asm"
	"profileme/internal/isa"
	"profileme/internal/stats"
)

// Figure2Program builds the paper's Figure 2 microbenchmark: a loop with a
// single always-hitting load followed by hundreds of nops. Monitoring
// D-cache-reference events on this program exposes how far the
// event-counter interrupt PC lands from the load that caused the event.
// The load's PC is bound to the label "theload".
func Figure2Program(nops, iters int) *isa.Program {
	if nops < 1 {
		nops = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".equ ITERS, %d\n.proc main\n    lda r4, buf(zero)\n    ld r2, 0(r4)\n    lda r1, ITERS(zero)\nloop:\ntheload:\n    ld   r2, 0(r4)\n", iters)
	for i := 0; i < nops; i++ {
		b.WriteString("    nop\n")
	}
	b.WriteString("    sub  r1, r1, #1\n    bne  r1, loop\n    ret\n.endp\n.data\n.org 0x20000\nbuf:\n    .word 7\n")
	return sanity(asm.Assemble(b.String()))
}

// Figure7Program builds the paper's Figure 7 three-loop program. The loops
// exercise different combinations of latency and useful concurrency, and —
// as in any real program — different execution counts (the high-ILP inner
// loop is the hottest):
//
//	loop A ("circles"): a serial multiply chain with no parallel work,
//	  run iters times — high CPI, so in-flight instructions spend long in
//	  the machine and almost every issue slot during their windows is
//	  wasted.
//	loop B ("squares"): a dependent cache-resident load chain with a
//	  little parallel work, run 2*iters times — moderate on both axes.
//	loop C ("triangles"): one loop-carried multiply amid abundant
//	  independent work, run 24*iters times — near-peak IPC, so its hot
//	  instructions accumulate the highest *total* latency of the program
//	  while wasting the fewest slots.
//
// Ranking instructions by total latency therefore names loop C the
// bottleneck, while the wasted-slot metric correctly names loop A — the
// paper's argument for measuring useful concurrency via paired sampling.
func Figure7Program(iters int) *isa.Program { return figure7ProgramSeeded(iters, 0) }

// figure7ProgramSeeded is Figure7Program with an explicit pointer-ring
// seed (0 = canonical).
func figure7ProgramSeeded(iters int, dataSeed uint64) *isa.Program {
	src := fmt.Sprintf(`
.equ ITERS, %d
.equ ITERSB, %d
.equ ITERSC, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, adata(zero)
loopA:
    mul  r2, r2, #12345         ; serial chain, nothing to overlap
    mul  r2, r2, #777
    add  r2, r2, #13
    sub  r1, r1, #1
    bne  r1, loopA

    lda  r1, ITERSB(zero)
    lda  r16, bdata(zero)
loopB:
    ld   r3, 0(r16)             ; dependent loads, cache-resident
    add  r16, r3, #0
    add  r4, r4, r3
    add  r5, r5, #1
    sub  r1, r1, #1
    bne  r1, loopB

    lda  r1, ITERSC(zero)
    lda  r17, cdata(zero)
loopC:
    mul  r6, r6, #9973          ; one loop-carried multiply...
    add  r7, r7, #1             ; ...amid abundant independent work
    add  r8, r8, #2
    add  r9, r9, #3
    add  r10, r10, #4
    add  r11, r11, #5
    add  r12, r12, #6
    add  r13, r13, #7
    add  r14, r14, #8
    add  r15, r15, #9
    add  r21, r21, #10
    add  r22, r22, #11
    add  r23, r23, #12
    add  r24, r24, #13
    add  r25, r25, #14
    add  r27, r27, #15
    add  r28, r28, #16
    add  r29, r7, r8
    add  r2, r9, r10
    add  r3, r11, r12
    add  r4, r13, r14
    add  r5, r15, r21
    sub  r1, r1, #1
    bne  r1, loopC
    ret
.endp
.data
.org 0x20000
bdata:
.org 0x28000
adata:
.org 0x30000
cdata:
`, iters, 2*iters, 24*iters)
	p := sanity(asm.Assemble(src))
	// loop B's pointer ring: 64 cache-resident cells pointing at each
	// other in a shuffled cycle.
	rng := stats.NewRNG(deriveSeed(0xf167, dataSeed))
	perm := rng.Perm(64)
	for i := 0; i < 64; i++ {
		from := uint64(0x20000) + uint64(perm[i])*8
		to := uint64(0x20000) + uint64(perm[(i+1)%64])*8
		p.Data[from] = to
	}
	return p
}

// Figure7Loops maps each static loop-body instruction range to its loop
// name, so the experiment can label points like the paper's symbols.
func Figure7Loops(p *isa.Program) map[string][2]uint64 {
	la, _ := p.Label("loopA")
	lb, _ := p.Label("loopB")
	lc, _ := p.Label("loopC")
	end := p.MaxPC()
	return map[string][2]uint64{
		"A-serial":   {la, lb - 2*isa.InstBytes},
		"B-memory":   {lb, lc - 2*isa.InstBytes},
		"C-parallel": {lc, end},
	}
}

// Table1Programs returns one stress kernel per Table 1 latency row, each
// engineered so that its named pipeline-stage latency dominates. The keys
// are stable identifiers used by the table harness.
func Table1Programs(iters int) map[string]*isa.Program { return table1ProgramsSeeded(iters, 0) }

// table1ProgramsSeeded is Table1Programs with an explicit pointer-ring
// seed (0 = canonical).
func table1ProgramsSeeded(iters int, dataSeed uint64) map[string]*isa.Program {
	progs := make(map[string]*isa.Program)

	// fetch->map: the mapper stalls because the issue queue is full
	// behind a long-latency producer.
	progs["map-stall"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
loop:
    mul  r2, r2, #3             ; serial producer chain clogs the queue
    add  r3, r2, #1
    add  r4, r2, #2
    add  r5, r2, #3
    add  r6, r2, #4
    add  r7, r2, #5
    add  r8, r2, #6
    add  r9, r2, #7
    add  r10, r2, #8
    add  r11, r2, #9
    add  r12, r2, #10
    add  r13, r2, #11
    add  r14, r2, #12
    add  r15, r2, #13
    add  r21, r2, #14
    add  r22, r2, #15
    add  r23, r2, #16
    add  r24, r2, #17
    add  r25, r2, #18
    add  r29, r2, #19
    add  r27, r2, #20
    add  r28, r2, #21
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`, iters)))

	// map->data-ready: every instruction waits on a 7-cycle multiply.
	progs["dep-stall"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
loop:
    mul  r2, r2, #3
    add  r3, r2, #1             ; data-ready lags map by the mul latency
    mul  r4, r3, #5
    add  r5, r4, #1
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`, iters)))

	// data-ready->issue: ready loads outnumber the two memory ports.
	progs["fu-contention"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, buf(zero)
loop:
    ld   r2, 0(r16)
    ld   r3, 8(r16)
    ld   r4, 16(r16)
    ld   r5, 24(r16)
    ld   r6, 32(r16)
    ld   r7, 40(r16)
    ld   r8, 48(r16)
    ld   r9, 56(r16)
    ld   r2, 0(r16)
    ld   r3, 8(r16)
    ld   r4, 16(r16)
    ld   r5, 24(r16)
    ld   r6, 32(r16)
    ld   r7, 40(r16)
    ld   r8, 48(r16)
    ld   r9, 56(r16)
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x20000
buf:
    .word 1, 2, 3, 4, 5, 6, 7, 8
`, iters)))

	// issue->retire-ready: unpipelined divides.
	progs["exec-latency"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r2, 1000000(zero)
loop:
    fdiv r2, r2, #3
    add  r2, r2, #1000000
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp`, iters)))

	// retire-ready->retire: fast instructions stuck behind a consumer of
	// a missing load's value. (The load itself retires early — the Alpha
	// lets loads retire before the value returns — so the retirement
	// blockage comes from the first use of the value.)
	progs["retire-stall"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, big(zero)
loop:
    ld   r2, 0(r16)             ; misses far into memory
    add  r17, r2, #1            ; consumer: completes when the value lands
    add  r16, r16, #8192
    and  r16, r16, #0x2ffff8
    or   r16, r16, #0x200000
    add  r3, r3, #1             ; complete instantly, retire late
    add  r4, r4, #2
    add  r5, r5, #3
    add  r6, r6, #4
    add  r7, r7, #5
    add  r8, r8, #6
    add  r9, r9, #7
    add  r10, r10, #8
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x200000
big:
`, iters)))

	// load issue->completion: a dependent chase that misses everywhere.
	progs["mem-latency"] = sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, ring(zero)
loop:
    ld   r16, 0(r16)            ; pointer chase across 4 MB
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x400000
ring:
`, iters)))
	// Pointer ring over 4 MB with 8 KB stride: every load misses L1,
	// most miss L2 and the TLB.
	mem := progs["mem-latency"]
	const cells = 512
	rng := stats.NewRNG(deriveSeed(0x7ab1e, dataSeed))
	perm := rng.Perm(cells)
	for i := 0; i < cells; i++ {
		from := uint64(0x400000) + uint64(perm[i])*8192
		to := uint64(0x400000) + uint64(perm[(i+1)%cells])*8192
		mem.Data[from] = to
	}
	return progs
}

// Table1Order returns the Table 1 kernel names in the paper's row order.
func Table1Order() []string {
	return []string{"map-stall", "dep-stall", "fu-contention", "exec-latency", "retire-stall", "mem-latency"}
}

// Table1Baseline returns a balanced reference kernel that stresses no
// particular pipeline stage: short dependence chains, cache-resident
// memory traffic and spare issue bandwidth. The Table 1 experiment
// compares each stress kernel's target latency against this baseline.
func Table1Baseline(iters int) *isa.Program {
	return sanity(asm.Assemble(fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, buf(zero)
loop:
    ld   r2, 0(r16)
    add  r3, r2, #1
    add  r4, r4, #1
    add  r5, r5, #2
    st   r3, 8(r16)
    add  r6, r6, #3
    add  r7, r7, #4
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x20000
buf:
    .word 5, 0
`, iters)))
}
