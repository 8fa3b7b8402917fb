package workload

import (
	"fmt"

	"profileme/internal/asm"
	"profileme/internal/isa"
	"profileme/internal/stats"
)

// The extension kernels grow the suite beyond the paper's eight SPECint95
// programs toward the heterogeneous mixes a production collector tier
// actually sees: an interpreter whose virtual state lives in memory
// (m88ksim), a regular FP stencil (swim), and a compare/exchange kernel
// whose branches never settle (eqntott). Each occupies a behavioural
// corner the original eight leave open — m88ksim combines perl's indirect
// dispatch with per-step register-file memory traffic, swim streams
// strided FP with near-total spatial locality, and eqntott keeps its swap
// branch near 50% taken forever.

// m88ksim is a CPU-simulator kernel in the style of SPEC M88KSIM: a
// fetch/decode/dispatch interpreter over a synthetic target instruction
// image, indirect-jumping through a handler table. Unlike perl's stack
// VM, the virtual machine state is a 16-entry register file held in
// memory, so every target instruction loads and stores architectural
// state, and the target's own conditional branches steer the virtual PC
// data-dependently.
func m88ksim(scale int) *isa.Program { return m88ksimSeeded(scale, 0) }

// m88ksimSeeded is M88ksim with an explicit target-image seed
// (0 = canonical).
func m88ksimSeeded(scale int, dataSeed uint64) *isa.Program {
	const imemWords = 512
	steps := clampScale(scale/27, 32, 0)
	src := fmt.Sprintf(`
.equ STEPS, %d
.proc main
    lda  r1, STEPS(zero)
    lda  r18, imem(zero)
    lda  r21, jtab88(zero)
    lda  r29, vregs(zero)
    lda  r27, vmem(zero)
    beq  r1, badimage           ; argument guards (never taken)
    beq  r18, badimage
    beq  r21, badimage
step:
    and  r2, r16, #511          ; wrap the virtual pc
    sll  r4, r2, #3
    add  r4, r4, r18
    ld   r5, 0(r4)              ; packed target instruction
    add  r16, r16, #1
    and  r6, r5, #7             ; opcode
    srl  r9, r5, #4
    and  r9, r9, #15
    sll  r9, r9, #3
    add  r9, r9, r29            ; &vr[rd]
    srl  r10, r5, #8
    and  r10, r10, #15
    sll  r10, r10, #3
    add  r10, r10, r29          ; &vr[rs]
    srl  r12, r5, #12
    and  r12, r12, #0xffff      ; immediate
    sll  r7, r6, #3
    add  r7, r7, r21
    ld   r8, 0(r7)              ; handler address
    jmp  (r8)

vop_add:
    ld   r11, 0(r9)
    ld   r13, 0(r10)
    add  r11, r11, r13
    st   r11, 0(r9)
    br   next88
vop_xor:
    ld   r11, 0(r9)
    ld   r13, 0(r10)
    xor  r11, r11, r13
    st   r11, 0(r9)
    br   next88
vop_load:
    ld   r13, 0(r10)
    add  r13, r13, r12
    sll  r13, r13, #3
    and  r13, r13, #0x7ff8      ; 32 KB virtual memory ring
    add  r13, r13, r27
    ld   r11, 0(r13)
    st   r11, 0(r9)
    br   next88
vop_store:
    ld   r13, 0(r10)
    add  r13, r13, r12
    sll  r13, r13, #3
    and  r13, r13, #0x7ff8
    add  r13, r13, r27
    ld   r11, 0(r9)
    st   r11, 0(r13)
    br   next88
vop_beq:
    ld   r13, 0(r10)
    and  r13, r13, #1           ; parity test: data-dependent direction
    bne  r13, next88
    add  r16, r12, #0           ; taken: virtual pc = immediate
    br   next88
vop_addi:
    ld   r13, 0(r10)
    add  r13, r13, r12
    st   r13, 0(r9)
    br   next88
vop_mul:
    ld   r11, 0(r9)
    ld   r13, 0(r10)
    mul  r11, r11, r13
    add  r11, r11, #1           ; keep the register file from sticking at 0
    st   r11, 0(r9)
    br   next88

next88:
    sub  r1, r1, #1
    bne  r1, step
    ret
badimage:
    lda  r19, -1(zero)
    ret
.endp
.data
.org 0x10f000
jtab88:
    .word vop_add, vop_xor, vop_load, vop_store, vop_beq, vop_addi, vop_mul, vop_addi
.org 0x110000
imem:
.org 0x112000
vregs:
.org 0x118000
vmem:
`, steps)
	p := sanity(asm.Assemble(src))

	// Target instruction image: a weighted opcode mix (ALU-heavy with
	// enough loads/stores/branches to keep the memory register file and
	// the virtual pc busy), random rd/rs, random 16-bit immediates.
	rng := stats.NewRNG(deriveSeed(0x88c51, dataSeed))
	for i := 0; i < imemWords; i++ {
		var op uint64
		switch r := rng.Intn(16); {
		case r < 4:
			op = 0 // add
		case r < 6:
			op = 1 // xor
		case r < 9:
			op = 2 // load
		case r < 11:
			op = 3 // store
		case r < 13:
			op = 4 // beq
		case r < 15:
			op = 5 // addi
		default:
			op = 6 // mul
		}
		rd := rng.Uint64() % 16
		rs := rng.Uint64() % 16
		imm := rng.Uint64() % (1 << 16)
		p.Data[0x110000+uint64(i)*8] = op | rd<<4 | rs<<8 | imm<<12
	}
	fillWords(p, 0x112000, 16, deriveSeed(0x88e6, dataSeed), 0)
	fillWords(p, 0x118000, 4096, deriveSeed(0x88da7a, dataSeed), 0)
	return p
}

// swim is a shallow-water relaxation kernel in the style of SPEC SWIM:
// in-place 5-point stencil sweeps over a 64x64 grid with a source term,
// row by row. Strided FP loads with near-perfect spatial locality and a
// branch structure that is pure loop control — the prefetch-friendly,
// regular-memory member of the suite, the opposite corner from li.
func swim(scale int) *isa.Program { return swimSeeded(scale, 0) }

// swimSeeded is Swim with an explicit initial-grid seed (0 = canonical).
func swimSeeded(scale int, dataSeed uint64) *isa.Program {
	rows := clampScale(scale/940, 2, 0)
	src := fmt.Sprintf(`
.equ ROWS, %d
.proc main
    lda  r1, ROWS(zero)
    lda  r18, grid(zero)
    lda  r2, 1(zero)            ; interior row index, 1..62
    beq  r1, badgrid            ; argument guards (never taken)
    beq  r18, badgrid
row:
    mul  r20, r2, #512          ; row base: 64 words per row
    add  r20, r20, r18
    lda  r3, 1(zero)            ; interior column index, 1..62
col:
    sll  r4, r3, #3
    add  r4, r4, r20
    ld   r6, -512(r4)           ; north
    ld   r7, 512(r4)            ; south
    ld   r8, -8(r4)             ; west
    ld   r9, 8(r4)              ; east
    fadd r6, r6, r7
    fadd r8, r8, r9
    fadd r6, r6, r8
    fmul r6, r6, #205           ; x205 >> 10 ~ 0.2: four-neighbour average
    srl  r6, r6, #10
    add  r6, r6, #3             ; source term keeps the field energized
    st   r6, 0(r4)
    fadd r21, r21, r6           ; running checksum
    add  r3, r3, #1
    cmplt r5, r3, #63
    bne  r5, col
    add  r2, r2, #1
    cmplt r5, r2, #63
    bne  r5, nextrow
    lda  r2, 1(zero)            ; wrap back to the top interior row
nextrow:
    sub  r1, r1, #1
    bne  r1, row
    ret
badgrid:
    lda  r21, -1(zero)
    ret
.endp
.data
.org 0xa0000
grid:
`, rows)
	p := sanity(asm.Assemble(src))
	fillWords(p, 0xa0000, 64*64, deriveSeed(0x5717, dataSeed), 1<<20)
	return p
}

// eqntott is a truth-table kernel in the style of SPEC EQNTOTT's cmppt:
// exchange passes over an array of term vectors, swapping adjacent terms
// when a compare says they are out of order. A per-element perturbation
// stream keeps the array from ever settling into sorted order, so the
// swap branch stays near 50% taken — the mispredict-heavy member of the
// suite.
func eqntott(scale int) *isa.Program { return eqntottSeeded(scale, 0) }

// eqntottSeeded is Eqntott with an explicit term-array seed
// (0 = canonical).
func eqntottSeeded(scale int, dataSeed uint64) *isa.Program {
	terms := 256
	passes := clampScale(scale/4400, 2, 0)
	src := fmt.Sprintf(`
.equ PASSES, %d
.proc main
    lda  r1, PASSES(zero)
    lda  r18, terms(zero)
    lda  r5, 88172645463325252(zero)
    beq  r1, badterms           ; argument guards (never taken)
    beq  r18, badterms
pass:
    lda  r2, 0(zero)            ; element index
elem:
    sll  r4, r2, #3
    add  r4, r4, r18
    ld   r6, 0(r4)
    ld   r7, 8(r4)
    cmplt r8, r7, r6            ; out of order?
    beq  r8, inorder
    st   r7, 0(r4)              ; exchange
    st   r6, 8(r4)
    add  r9, r9, #1             ; swap count
inorder:
    mul  r5, r5, #6364136223846793005
    add  r5, r5, #1442695040888963407
    srl  r10, r5, #50
    beq  r10, stable            ; 1-in-16k: leave the term alone
    ld   r6, 8(r4)              ; perturb the forward term full-width, so
    xor  r6, r6, r5             ; the next compare is a fresh coin flip
    st   r6, 8(r4)              ; and sortedness never converges
stable:
    add  r2, r2, #1
    cmplt r8, r2, #%d
    bne  r8, elem
    sub  r1, r1, #1
    bne  r1, pass
    ret
badterms:
    lda  r9, -1(zero)
    ret
.endp
.data
.org 0xb0000
terms:
`, passes, terms-1)
	p := sanity(asm.Assemble(src))
	fillWords(p, 0xb0000, terms, deriveSeed(0xe9b077, dataSeed), 0)
	return p
}
