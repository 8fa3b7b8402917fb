package sim

import (
	"errors"
	"testing"

	"profileme/internal/asm"
	"profileme/internal/isa"
)

func TestStraightLineALU(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, 6(zero)
    lda r2, 7(zero)
    mul r3, r1, r2
    add r4, r3, #100
    sub r5, r4, r1
    and r6, r4, #0xf
    or  r7, r6, #0x10
    xor r8, r7, r7
    sll r9, r1, #4
    srl r10, r9, #2
    ret
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("not halted")
	}
	want := map[isa.Reg]uint64{
		1: 6, 2: 7, 3: 42, 4: 142, 5: 136, 6: 142 & 0xf, 7: 0xe | 0x10,
		8: 0, 9: 96, 10: 24,
	}
	for r, v := range want {
		if got := m.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, -8(zero)
    sra r2, r1, #1
    cmplt r3, r1, #0
    cmple r4, r1, #-8
    cmpeq r5, r1, #-8
    cmpult r6, r1, #1
    ret
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if int64(m.Reg(2)) != -4 {
		t.Errorf("sra = %d", int64(m.Reg(2)))
	}
	if m.Reg(3) != 1 || m.Reg(4) != 1 || m.Reg(5) != 1 {
		t.Errorf("signed compares: %d %d %d", m.Reg(3), m.Reg(4), m.Reg(5))
	}
	if m.Reg(6) != 0 { // unsigned: -8 is huge
		t.Errorf("cmpult = %d", m.Reg(6))
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..10 with a counted loop.
	p := asm.MustAssemble(`
.proc main
    lda r1, 10(zero)
    lda r2, 0(zero)
loop:
    add r2, r2, r1
    sub r1, r1, #1
    bne r1, loop
    ret
.endp`)
	m := New(p)
	n, err := m.Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reg(2) != 55 {
		t.Fatalf("sum = %d", m.Reg(2))
	}
	if n != 2+3*10+1 {
		t.Fatalf("executed %d instructions", n)
	}
}

func TestMemoryAndData(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, vec(zero)
    ld  r2, 0(r1)
    ld  r3, 8(r1)
    add r4, r2, r3
    st  r4, 16(r1)
    ld  r5, 16(r1)
    ret
.endp
.data
.org 0x4000
vec: .word 11, 31, 0
`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(5) != 42 {
		t.Fatalf("r5 = %d", m.Reg(5))
	}
	if m.load(0x4010) != 42 {
		t.Fatalf("mem = %d", m.load(0x4010))
	}
}

func TestCallAndReturn(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    add r20, ra, #0      ; preserve the halt return address
    lda r1, 5(zero)
    jsr ra, double
    add r3, r2, #1
    ret (r20)
.endp
.proc double
    add r2, r1, r1
    ret (ra)
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(3) != 11 {
		t.Fatalf("r3 = %d", m.Reg(3))
	}
}

func TestIndirectJumpTable(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, case1(zero)
    jmp (r1)
    lda r9, 111(zero)   ; skipped
case1:
    lda r9, 222(zero)
    ret
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(9) != 222 {
		t.Fatalf("r9 = %d", m.Reg(9))
	}
}

func TestRecordFields(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, 0x4000(zero)
    ld  r2, 8(r1)
    beq r2, skip
    st  r2, 0(r1)
skip:
    ret
.endp
.data
.org 0x4000
.word 0, 7
`)
	recs, err := Trace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("%d records", len(recs))
	}
	ld := recs[1]
	if ld.EA != 0x4008 {
		t.Fatalf("load EA = %#x", ld.EA)
	}
	br := recs[2]
	if br.Taken || br.Target != br.PC+4 {
		t.Fatalf("not-taken branch record = %+v", br)
	}
	st := recs[3]
	if st.EA != 0x4000 {
		t.Fatalf("store EA = %#x", st.EA)
	}
	ret := recs[4]
	if !ret.Taken || ret.Target != haltPC {
		t.Fatalf("ret record = %+v", ret)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("seq gap at %d", i)
		}
	}
}

func TestTakenBranchRecord(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, 1(zero)
    bne r1, over
    nop
over:
    ret
.endp`)
	recs, err := Trace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	br := recs[1]
	if !br.Taken || br.Target != 12 {
		t.Fatalf("branch record = %+v", br)
	}
	if recs[2].PC != 12 {
		t.Fatal("nop was not skipped")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda zero, 99(zero)
    add zero, zero, #5
    add r1, zero, #0
    ret
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(isa.RegZero) != 0 || m.Reg(1) != 0 {
		t.Fatal("zero register was written")
	}
}

func TestRunLimit(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
loop:
    br loop
.endp`)
	m := New(p)
	n, err := m.Run(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || m.Halted() {
		t.Fatalf("n=%d halted=%v", n, m.Halted())
	}
}

func TestPCOutsideImage(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    nop
.endp`) // falls off the end
	m := New(p)
	_, err := m.Run(0, nil)
	if !errors.Is(err, ErrNoInst) {
		t.Fatalf("err = %v", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	p := asm.MustAssemble(".proc main\n ret\n.endp")
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	r, ok, err := m.Step()
	if ok || err != nil || r.Seq != 0 {
		t.Fatalf("step after halt = %+v, %v, %v", r, ok, err)
	}
}

func TestFDivByZero(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    lda r1, 10(zero)
    fdiv r2, r1, zero
    fdiv r3, r1, #2
    ret
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(2) != 0 || m.Reg(3) != 5 {
		t.Fatalf("fdiv results: %d %d", m.Reg(2), m.Reg(3))
	}
}

func TestMachineSource(t *testing.T) {
	p := asm.MustAssemble(`
.proc main
    nop
    nop
    nop
    ret
.endp`)
	s := NewMachineSource(New(p), 2)
	var n int
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 || s.Err() != nil {
		t.Fatalf("n=%d err=%v", n, s.Err())
	}

	s2 := NewMachineSource(New(p), 0)
	n = 0
	for {
		_, ok := s2.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("unlimited source yielded %d", n)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{{Seq: 0}, {Seq: 1}}
	s := NewSliceSource(recs)
	r, ok := s.Next()
	if !ok || r.Seq != 0 {
		t.Fatal("first")
	}
	r, ok = s.Next()
	if !ok || r.Seq != 1 {
		t.Fatal("second")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("end")
	}
}

func TestRecursiveFactorial(t *testing.T) {
	// Recursion with a manual stack: fact(n) via sp-based frames.
	p := asm.MustAssemble(`
.proc main
    add r20, ra, #0      ; preserve the halt return address
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
    st  r1, 8(sp)
    sub r1, r1, #1
    jsr ra, fact
    ld  r1, 8(sp)
    ld  ra, 0(sp)
    add sp, sp, #16
    mul r2, r2, r1
    ret (ra)
.endp`)
	m := New(p)
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(2) != 720 {
		t.Fatalf("fact(6) = %d", m.Reg(2))
	}
}
