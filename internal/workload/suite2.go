package workload

import (
	"fmt"

	"profileme/internal/asm"
	"profileme/internal/isa"
	"profileme/internal/stats"
)

// Ijpeg is a dense arithmetic kernel in the style of SPEC IJPEG's block
// transforms: unrolled butterfly arithmetic over 8-word blocks with
// integer multiplies, regular strided memory and almost no branches. The
// high-ILP member of the suite.
func Ijpeg(scale int) *isa.Program { return ijpegSeeded(scale, 0) }

// ijpegSeeded is Ijpeg with an explicit pixel seed (0 = canonical).
func ijpegSeeded(scale int, dataSeed uint64) *isa.Program {
	blocks := clampScale(scale/45, 8, 0)
	src := fmt.Sprintf(`
.equ BLOCKS, %d
.proc main
    lda  r1, BLOCKS(zero)
    lda  r16, pixels(zero)
block:
    ld   r2, 0(r16)
    ld   r3, 8(r16)
    ld   r4, 16(r16)
    ld   r5, 24(r16)
    ld   r6, 32(r16)
    ld   r7, 40(r16)
    ld   r8, 48(r16)
    ld   r9, 56(r16)
    add  r10, r2, r9            ; butterfly stage 1
    sub  r11, r2, r9
    add  r12, r3, r8
    sub  r13, r3, r8
    add  r14, r4, r7
    sub  r15, r4, r7
    add  r21, r5, r6
    sub  r22, r5, r6
    mul  r10, r10, #181         ; stage 2: scaled rotations
    mul  r11, r11, #98
    mul  r12, r12, #139
    mul  r13, r13, #236
    mul  r14, r14, #181
    mul  r15, r15, #98
    mul  r21, r21, #139
    mul  r22, r22, #236
    add  r23, r10, r14          ; stage 3: recombination
    sub  r24, r10, r14
    add  r25, r12, r21
    sub  r27, r12, r21
    add  r2, r23, r25
    sub  r3, r23, r25
    add  r4, r24, r27
    sub  r5, r24, r27
    add  r6, r11, r22
    sub  r7, r11, r22
    add  r8, r13, r15
    sub  r9, r13, r15
    st   r2, 0(r16)
    st   r3, 8(r16)
    st   r4, 16(r16)
    st   r5, 24(r16)
    st   r6, 32(r16)
    st   r7, 40(r16)
    st   r8, 48(r16)
    st   r9, 56(r16)
    add  r16, r16, #64
    and  r16, r16, #0x77fc0     ; wrap within the 32 KB pixel region
    sub  r1, r1, #1
    bne  r1, block
    ret
.endp
.data
.org 0x70000
pixels:
`, blocks)
	p := sanity(asm.Assemble(src))
	fillWords(p, 0x70000, 4096, deriveSeed(0x1dea1, dataSeed), 4096)
	return p
}

// li is a list-interpreter kernel in the style of SPEC LI: serial pointer
// chasing through scattered cons cells, summing cars and branching on
// their parity. The low-ILP, cache-hostile member of the suite.
func li(scale int) *isa.Program { return liSeeded(scale, 0) }

// liSeeded is li with an explicit heap-scatter seed (0 = canonical).
func liSeeded(scale int, dataSeed uint64) *isa.Program {
	const (
		lists    = 64
		cells    = 200
		cellBase = 0x100000
	)
	iters := clampScale(scale/(cells*9), 2, 0)
	src := fmt.Sprintf(`
.equ ITERS, %d
.proc main
    lda  r1, ITERS(zero)
    lda  r18, heads(zero)
    lda  r22, 0(zero)           ; list cursor
outer:
    sll  r4, r22, #3
    add  r4, r4, r18
    ld   r16, 0(r4)             ; list head
trav:
    beq  r16, fin
    ld   r2, 0(r16)             ; car
    add  r23, r23, r2
    and  r3, r2, #1
    beq  r3, evn
    add  r24, r24, #1
evn:
    ld   r16, 8(r16)            ; cdr: the serializing load
    br   trav
fin:
    add  r22, r22, #1
    and  r22, r22, #63
    sub  r1, r1, #1
    bne  r1, outer
    ret
.endp
.data
.org 0xff000
heads:
.org 0x100000
cellheap:
`, iters)
	p := sanity(asm.Assemble(src))

	// Scatter the cells of each list across a 1 MB heap so the cdr chain
	// misses the caches, like a fragmented lisp heap.
	rng := stats.NewRNG(deriveSeed(0x115b, dataSeed))
	slots := rng.Perm(lists * cells)
	cellAddr := func(slot int) uint64 { return cellBase + uint64(slots[slot])*64 }
	slot := 0
	for l := 0; l < lists; l++ {
		head := cellAddr(slot)
		p.Data[0xff000+uint64(l)*8] = head
		for c := 0; c < cells; c++ {
			addr := cellAddr(slot)
			p.Data[addr] = rng.Uint64() % 4096 // car
			if c < cells-1 {
				p.Data[addr+8] = cellAddr(slot + 1) // cdr
			} else {
				p.Data[addr+8] = 0 // nil
			}
			slot++
		}
	}
	return p
}

// Perl is a bytecode-interpreter kernel in the style of SPEC PERL:
// a dispatch loop that indirect-jumps through a handler table, with VM
// stack traffic and a hash-lookup opcode. The indirect-branch-hostile
// member of the suite.
func Perl(scale int) *isa.Program { return perlSeeded(scale, 0) }

// perlSeeded is Perl with an explicit bytecode seed (0 = canonical).
func perlSeeded(scale int, dataSeed uint64) *isa.Program {
	const codeWords = 1024
	steps := clampScale(scale/16, 32, 0)
	src := fmt.Sprintf(`
.equ STEPS, %d
.proc main
    lda  r1, STEPS(zero)
    lda  r18, code(zero)
    lda  r21, jtab(zero)
    lda  r17, vmstack(zero)
    lda  r28, hashtab(zero)
    beq  r1, badcode            ; argument guards (never taken)
    beq  r18, badcode
    beq  r21, badcode
dispatch:
    sll  r4, r16, #3
    add  r4, r4, r18
    ld   r5, 0(r4)              ; packed op: opcode | operand<<8
    and  r6, r5, #7
    sll  r7, r6, #3
    add  r7, r7, r21
    ld   r8, 0(r7)              ; handler address
    add  r16, r16, #1
    and  r16, r16, #1023        ; wrap VM pc
    jmp  (r8)

op_push:
    srl  r9, r5, #8
    st   r9, 0(r17)
    add  r17, r17, #8
    and  r17, r17, #0x61ff8     ; clamp VM stack into its ring
    br   bottom
op_add:
    sub  r17, r17, #8
    and  r17, r17, #0x61ff8
    ld   r9, 0(r17)
    sub  r17, r17, #8
    and  r17, r17, #0x61ff8
    ld   r10, 0(r17)
    add  r9, r9, r10
    st   r9, 0(r17)
    add  r17, r17, #8
    and  r17, r17, #0x61ff8
    br   bottom
op_mul:
    sub  r17, r17, #8
    and  r17, r17, #0x61ff8
    ld   r9, 0(r17)
    mul  r19, r19, r9
    add  r19, r19, #1
    br   bottom
op_jz:
    sub  r17, r17, #8
    and  r17, r17, #0x61ff8
    ld   r9, 0(r17)
    bne  r9, bottom
    srl  r16, r5, #8            ; VM branch target
    and  r16, r16, #1023
    br   bottom
op_hash:
    mul  r9, r19, #2654435761
    srl  r9, r9, #8
    and  r9, r9, #2047
    sll  r9, r9, #3
    add  r9, r9, r28
    ld   r10, 0(r9)
    add  r19, r19, r10
    br   bottom
op_nop:
    add  r25, r25, #1
    br   bottom

bottom:
    sub  r1, r1, #1
    bne  r1, dispatch
    ret
badcode:
    lda  r19, -1(zero)
    ret
.endp
.data
.org 0x5f000
jtab:
    .word op_push, op_add, op_mul, op_jz, op_hash, op_nop, op_nop, op_nop
.org 0x60000
vmstack:
.org 0x62000
code:
.org 0x64000
hashtab:
`, steps)
	p := sanity(asm.Assemble(src))

	// Generate bytecode biased toward pushes so the VM stack ring mostly
	// holds real values; operands are random.
	rng := stats.NewRNG(deriveSeed(0x9e71, dataSeed))
	for i := 0; i < codeWords; i++ {
		var op uint64
		switch r := rng.Intn(10); {
		case r < 4:
			op = 0 // push
		case r < 6:
			op = 1 // add
		case r < 7:
			op = 2 // mul
		case r < 8:
			op = 3 // jz
		case r < 9:
			op = 4 // hash
		default:
			op = 5 // nop
		}
		operand := rng.Uint64() % 1024
		p.Data[0x62000+uint64(i)*8] = op | operand<<8
	}
	fillWords(p, 0x64000, 2048, deriveSeed(0xdeadbee, dataSeed), 9999)
	return p
}
