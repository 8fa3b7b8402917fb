package workload

import (
	"fmt"

	"profileme/internal/asm"
	"profileme/internal/isa"
	"profileme/internal/stats"
)

// povray is a ray-sphere intersection kernel in the style of SPEC POVRAY:
// "floating point" dot products and rotations per ray, a sign-test branch
// on the discriminant, and an expensive divide on the hit path. The
// FP-heavy member of the suite.
func povray(scale int) *isa.Program { return povraySeeded(scale, 0) }

// povraySeeded is Povray with an explicit scene seed (0 = canonical).
func povraySeeded(scale int, dataSeed uint64) *isa.Program {
	rays := clampScale(scale/26, 8, 0)
	src := fmt.Sprintf(`
.equ RAYS, %d
.proc main
    lda  r1, RAYS(zero)
    lda  r18, spheres(zero)
    lda  r5, 88172645463325252(zero)
ray:
    mul  r5, r5, #6364136223846793005
    add  r5, r5, #1442695040888963407
    srl  r2, r5, #44            ; ray direction components
    srl  r3, r5, #24
    and  r3, r3, #0xfffff
    and  r4, r5, #0xfffff
    sll  r6, r22, #5            ; sphere record (32 B each)
    add  r6, r6, r18
    ld   r7, 0(r6)
    ld   r8, 8(r6)
    ld   r9, 16(r6)
    ld   r10, 24(r6)            ; squared radius term
    fmul r11, r2, r7            ; b = d . c
    fmul r12, r3, r8
    fmul r13, r4, r9
    fadd r11, r11, r12
    fadd r11, r11, r13
    srl  r11, r11, #24          ; rescale
    sub  r14, r11, r10          ; discriminant sign test
    blt  r14, miss
    add  r11, r11, #1
    fdiv r15, r10, r11          ; hit: normalize by b
    fadd r21, r21, r15
    br   cont
miss:
    fadd r23, r23, #1
cont:
    add  r22, r22, #1
    and  r22, r22, #63
    sub  r1, r1, #1
    bne  r1, ray
    ret
.endp
.data
.org 0x80000
spheres:
`, rays)
	p := sanity(asm.Assemble(src))
	// 64 spheres: centre components and a radius term calibrated so a
	// moderate fraction of rays "hit".
	rng := stats.NewRNG(deriveSeed(0x9077, dataSeed))
	for i := 0; i < 64; i++ {
		base := uint64(0x80000) + uint64(i)*32
		p.Data[base+0] = rng.Uint64() % (1 << 20)
		p.Data[base+8] = rng.Uint64() % (1 << 20)
		p.Data[base+16] = rng.Uint64() % (1 << 20)
		p.Data[base+24] = rng.Uint64() % (1 << 36)
	}
	return p
}

// vortex is a record-store kernel in the style of SPEC VORTEX: hashed
// lookups into a 256 KB open-addressed record table with bounded probing,
// field updates on hit and insert-with-eviction on miss, behind a
// procedure-call interface. The store-heavy member of the suite.
func vortex(scale int) *isa.Program { return vortexSeeded(scale, 0) }

// vortexSeeded is vortex with an explicit record-prefill seed
// (0 = canonical).
func vortexSeeded(scale int, dataSeed uint64) *isa.Program {
	const (
		slots    = 8192
		recBase  = 0x90000
		prefill  = 5000
		probeCap = 16
	)
	txns := clampScale(scale/45, 8, 0)
	src := fmt.Sprintf(`
.equ TXNS, %d
.proc main
    add  r20, ra, #0
    lda  r1, TXNS(zero)
    lda  r21, records(zero)
    lda  r5, 1181783497276652981(zero)
txn:
    mul  r5, r5, #6364136223846793005
    add  r5, r5, #1442695040888963407
    srl  r16, r5, #40
    and  r16, r16, #0xffff
    add  r16, r16, #1           ; keys are nonzero
    jsr  ra, lookup
    beq  r2, insert
    ld   r4, 8(r2)              ; update on hit
    add  r4, r4, #1
    st   r4, 8(r2)
    st   r5, 16(r2)
    br   done
insert:
    st   r16, 0(r3)             ; insert (or evict) at last probed slot
    st   zero, 8(r3)
    st   r5, 16(r3)
done:
    sub  r1, r1, #1
    bne  r1, txn
    ret  (r20)
.endp

; lookup: r16 = key -> r2 = record address or 0; r3 = last probed slot.
.proc lookup
    beq  r16, badkey            ; null-key guard (never taken)
    mul  r2, r16, #40503
    and  r2, r2, #8191
    lda  r7, %d(zero)           ; probe budget
probe:
    sll  r3, r2, #5
    add  r3, r3, r21
    ld   r4, 0(r3)
    beq  r4, absent
    cmpeq r6, r4, r16
    bne  r6, found
    sub  r7, r7, #1
    beq  r7, absent             ; give up: caller evicts this slot
    add  r2, r2, #1
    and  r2, r2, #8191
    br   probe
absent:
    lda  r2, 0(zero)
    ret  (ra)
found:
    add  r2, r3, #0
    ret  (ra)
badkey:
    lda  r2, 0(zero)
    lda  r3, 0(zero)
    ret  (ra)
.endp
.data
.org 0x90000
records:
`, txns, probeCap)
	p := sanity(asm.Assemble(src))

	// Prefill ~60% of the table using the same hash and probing rule.
	rng := stats.NewRNG(deriveSeed(0x0c7e, dataSeed))
	inserted := 0
	for inserted < prefill {
		key := rng.Uint64()%0xffff + 1
		slot := (key * 40503) % slots
		placed := false
		for probe := 0; probe < probeCap; probe++ {
			addr := recBase + slot*32
			if p.Data[addr] == 0 {
				p.Data[addr] = key
				p.Data[addr+8] = rng.Uint64() % 1000
				p.Data[addr+16] = rng.Uint64()
				placed = true
				break
			}
			if p.Data[addr] == key {
				placed = true // duplicate key already present
				break
			}
			slot = (slot + 1) % slots
		}
		if placed {
			inserted++
		}
	}
	return p
}
