package workload

import (
	"fmt"

	"profileme/internal/asm"
	"profileme/internal/isa"
	"profileme/internal/stats"
)

// Compress is a stream-compression kernel in the style of SPEC COMPRESS:
// it hashes a (prefix, symbol) pair for every input word and probes a hash
// table with one linear reprobe, inserting on miss. Data-dependent
// hit/miss branches and a table larger than the L1 working set give it the
// cache and mispredict profile of the original.
func Compress(scale int) *isa.Program { return compressSeeded(scale, 0) }

// compressSeeded is Compress with an explicit input-stream seed
// (0 = canonical).
func compressSeeded(scale int, dataSeed uint64) *isa.Program {
	iters := clampScale(scale/20, 16, 0)
	src := fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r16, input(zero)
    lda  r18, htab(zero)
    lda  r19, 1(zero)
    beq  r1, badargs            ; argument guards (never taken), as real
    beq  r16, badargs           ; code has between entry and hot loop
    beq  r18, badargs
loop:
    ld   r2, 0(r16)
    mul  r3, r19, #31
    xor  r3, r3, r2
    and  r3, r3, #4095
    sll  r4, r3, #3
    add  r4, r4, r18
    ld   r5, 0(r4)
    beq  r5, miss
    xor  r6, r5, r2
    and  r6, r6, #255
    beq  r6, hit
    add  r3, r3, #17        ; secondary probe
    and  r3, r3, #4095
    sll  r4, r3, #3
    add  r4, r4, r18
    ld   r5, 0(r4)
    beq  r5, miss
hit:
    add  r19, r5, r2
    br   next
miss:
    st   r2, 0(r4)
    add  r19, r2, #0
next:
    add  r16, r16, #8
    and  r16, r16, #0x27ff8 ; wrap within the 32 KB input ring
    sub  r1, r1, #1
    bne  r1, loop
    ret
badargs:
    lda  r19, -1(zero)
    ret
.endp
.data
.org 0x20000
input:
.org 0x40000
htab:
`, iters)
	p := sanity(asm.Assemble(src))
	fillWords(p, 0x20000, 4096, deriveSeed(0xc0115eed, dataSeed), 251)
	return p
}

// gcc is an expression-tree evaluator in the style of SPEC GCC's constant
// folding: recursive evaluation over binary trees stored in memory, with a
// branchy operator dispatch at every inner node. Call-heavy, branchy, and
// full of dependent pointer loads.
func gcc(scale int) *isa.Program { return gccSeeded(scale, 0) }

// gccSeeded is gcc with an explicit tree-shape seed (0 = canonical).
func gccSeeded(scale int, dataSeed uint64) *isa.Program {
	const (
		nodeBase  = 0x30000
		roots     = 16
		treeDepth = 6
	)
	iters := clampScale(scale/1400, 4, 0)
	src := fmt.Sprintf(`
.equ ITERS, %d
.proc main
    add  r20, ra, #0
    lda  r1, ITERS(zero)
    lda  r21, rootidx(zero)
    lda  r22, 0(zero)           ; root cursor
outer:
    sll  r4, r22, #3
    add  r4, r4, r21
    ld   r16, 0(r4)             ; next tree root
    jsr  ra, eval
    add  r23, r23, r2           ; accumulate result
    add  r22, r22, #1
    and  r22, r22, #%d
    sub  r1, r1, #1
    bne  r1, outer
    ret  (r20)
.endp

.proc eval
    beq  r16, nullnode          ; null-pointer guard (never taken)
    ld   r3, 0(r16)             ; op; 0 = leaf
    bne  r3, inner
    ld   r2, 24(r16)            ; leaf value
    ret  (ra)
nullnode:
    lda  r2, 0(zero)
    ret  (ra)
inner:
    sub  sp, sp, #32
    st   ra, 0(sp)
    st   r16, 8(sp)
    ld   r16, 8(r16)            ; left child
    jsr  ra, eval
    st   r2, 16(sp)
    ld   r16, 8(sp)
    ld   r16, 16(r16)           ; right child
    jsr  ra, eval
    ld   r4, 16(sp)
    ld   r16, 8(sp)
    ld   r3, 0(r16)
    ld   ra, 0(sp)
    add  sp, sp, #32
    cmpeq r5, r3, #1
    bne  r5, op_add
    cmpeq r5, r3, #2
    bne  r5, op_sub
    cmpeq r5, r3, #3
    bne  r5, op_mul
    xor  r2, r2, r4             ; op 4: xor
    ret  (ra)
op_add:
    add  r2, r2, r4
    ret  (ra)
op_sub:
    sub  r2, r4, r2
    ret  (ra)
op_mul:
    mul  r2, r2, r4
    ret  (ra)
.endp
.data
.org 0x2f000
rootidx:
.org 0x30000
nodes:
`, iters, roots-1)
	p := sanity(asm.Assemble(src))

	// Build the trees: nodes are 4 words (op, left, right, value).
	rng := stats.NewRNG(deriveSeed(0x9cc, dataSeed))
	next := uint64(nodeBase)
	alloc := func() uint64 {
		a := next
		next += 32
		return a
	}
	var build func(depth int) uint64
	build = func(depth int) uint64 {
		n := alloc()
		if depth == 0 || rng.Bool(0.15) {
			p.Data[n+0] = 0
			p.Data[n+24] = rng.Uint64() % 1000
			return n
		}
		p.Data[n+0] = uint64(rng.IntRange(1, 4))
		p.Data[n+8] = build(depth - 1)
		p.Data[n+16] = build(depth - 1)
		return n
	}
	for i := 0; i < roots; i++ {
		p.Data[0x2f000+uint64(i)*8] = build(treeDepth)
	}
	return p
}

// Go is a board-scanning kernel in the style of SPEC GO: nested loops over
// a 19x19 board with padding, classifying each point with data-dependent
// branches and probing its neighbours. The classification rotates with the
// pass number so branch directions do not settle.
func Go(scale int) *isa.Program { return goSeeded(scale, 0) }

// goSeeded is Go with an explicit board seed (0 = canonical).
func goSeeded(scale int, dataSeed uint64) *isa.Program {
	passes := clampScale(scale/9500, 2, 0)
	src := fmt.Sprintf(`
.equ PASSES, %d
.proc main
    lda  r1, PASSES(zero)
    lda  r18, board(zero)
    beq  r1, badboard           ; argument guards (never taken)
    beq  r18, badboard
pass:
    lda  r2, 1(zero)            ; i
rows:
    lda  r3, 1(zero)            ; j
cols:
    mul  r4, r2, #21
    add  r4, r4, r3
    sll  r4, r4, #3
    add  r4, r4, r18
    ld   r5, 0(r4)
    add  r5, r5, r1             ; rotate classification with pass
    and  r5, r5, #3
    beq  r5, empty
    cmpeq r6, r5, #1
    bne  r6, black
    add  r9, r9, #1             ; white or edge
    br   done
empty:
    ld   r6, 8(r4)              ; east neighbour
    ld   r7, -8(r4)             ; west neighbour
    add  r6, r6, r7
    and  r6, r6, #1
    beq  r6, quiet
    add  r10, r10, #1
quiet:
    add  r11, r11, #1
    br   done
black:
    ld   r6, 168(r4)            ; south neighbour (21*8)
    add  r12, r12, r6
done:
    add  r3, r3, #1
    cmplt r6, r3, #20
    bne  r6, cols
    add  r2, r2, #1
    cmplt r6, r2, #20
    bne  r6, rows
    sub  r1, r1, #1
    bne  r1, pass
    ret
badboard:
    lda  r9, -1(zero)
    ret
.endp
.data
.org 0x50000
board:
`, passes)
	p := sanity(asm.Assemble(src))
	fillWords(p, 0x50000, 21*21, deriveSeed(0x60b0a4d, dataSeed), 3)
	return p
}
