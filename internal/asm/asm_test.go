package asm

import (
	"strings"
	"testing"

	"profileme/internal/isa"
)

func TestBuilderSimpleLoop(t *testing.T) {
	b := NewBuilder()
	b.Proc("main").
		LdI(1, 10).
		Label("loop").
		SubI(1, 1, 1).
		Bne(1, "loop").
		Ret().
		EndProc()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Entry != 0 {
		t.Fatalf("entry = %#x", p.Entry)
	}
	br, _ := p.At(8)
	if br.Op != isa.OpBne || br.Target != 4 {
		t.Fatalf("branch = %v", br)
	}
	if pr := p.ProcByName("main"); pr == nil || pr.End != 16 {
		t.Fatalf("proc = %v", pr)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder()
	b.Proc("main").
		Beq(isa.RegZero, "done").
		Nop().
		Label("done").
		Ret().
		EndProc()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.At(0)
	if in.Target != 8 {
		t.Fatalf("forward target = %#x", in.Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Proc("main").Br("nowhere").EndProc()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x").Nop().Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label not caught")
	}
}

func TestBuilderUnclosedProc(t *testing.T) {
	b := NewBuilder()
	b.Proc("main").Nop()
	if _, err := b.Build(); err == nil {
		t.Fatal("unclosed proc not caught")
	}
}

func TestBuilderNestedProc(t *testing.T) {
	b := NewBuilder()
	b.Proc("a").Proc("b")
	if _, err := b.Build(); err == nil {
		t.Fatal("nested proc not caught")
	}
}

func TestBuilderData(t *testing.T) {
	b := NewBuilder()
	b.Org(0x2000).DataLabel("table").Word(1, 2, 3).Space(16).DataLabel("after")
	b.Proc("main").LdaLabel(4, "table").Ret().EndProc()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0x2000] != 1 || p.Data[0x2008] != 2 || p.Data[0x2010] != 3 {
		t.Fatalf("data = %v", p.Data)
	}
	if addr := p.Labels["after"]; addr != 0x2000+24+16 {
		t.Fatalf("after = %#x", addr)
	}
	lda, _ := p.At(0)
	if lda.Imm != 0x2000 {
		t.Fatalf("lda imm = %#x", lda.Imm)
	}
}

func TestBuilderEntrySelection(t *testing.T) {
	b := NewBuilder()
	b.Proc("start").Nop().Ret().EndProc()
	b.Proc("main").Ret().EndProc()
	b.entry = "start"
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0 {
		t.Fatalf("entry = %#x", p.Entry)
	}

	b2 := NewBuilder()
	b2.Proc("aux").Ret().EndProc()
	b2.Proc("main").Ret().EndProc()
	p2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Entry != 4 {
		t.Fatalf("default entry = %#x, want main at 4", p2.Entry)
	}
}

func TestBuilderBadEntry(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.entry = "missing"
	if _, err := b.Build(); err == nil {
		t.Fatal("bad entry not caught")
	}
}

const loopSrc = `
; simple counted loop
.equ COUNT, 10

.proc main
    lda   r1, COUNT(zero)
    lda   r4, table(zero)
loop:
    ld    r2, 0(r4)
    add   r3, r3, r2
    sub   r1, r1, #1
    bne   r1, loop
    jsr   ra, helper
    ret
.endp

.proc helper
    add   r5, r3, #0
    ret   (ra)
.endp

.data
.org 0x2000
table:
    .word 7, 8, 9
`

func TestAssembleLoop(t *testing.T) {
	p, err := Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 10 {
		t.Fatalf("len = %d:\n%s", p.Len(), p.Disassemble())
	}
	lda, _ := p.At(0)
	if lda.Op != isa.OpLda || lda.Imm != 10 {
		t.Fatalf("equ constant not applied: %v", lda)
	}
	tbl, _ := p.At(4)
	if tbl.Imm != 0x2000 {
		t.Fatalf("data label lda = %v", tbl)
	}
	bne, _ := p.At(20)
	if bne.Op != isa.OpBne || bne.Target != 8 {
		t.Fatalf("bne = %v", bne)
	}
	jsr, _ := p.At(24)
	helper, _ := p.Label("helper")
	if jsr.Op != isa.OpJsr || jsr.Target != helper || jsr.Rc != isa.RegRA {
		t.Fatalf("jsr = %v", jsr)
	}
	if p.Data[0x2008] != 8 {
		t.Fatalf("data word = %v", p.Data)
	}
	if len(p.Procs) != 2 {
		t.Fatalf("procs = %v", p.Procs)
	}
}

func TestAssembleAllALUOps(t *testing.T) {
	src := `
.proc main
    add r1, r2, r3
    sub r1, r2, #5
    and r1, r2, r3
    or  r1, r2, r3
    xor r1, r2, r3
    sll r1, r2, #3
    srl r1, r2, #3
    sra r1, r2, #3
    cmpeq r1, r2, r3
    cmplt r1, r2, r3
    cmple r1, r2, r3
    cmpult r1, r2, #9
    mul r1, r2, r3
    fadd r1, r2, r3
    fmul r1, r2, r3
    fdiv r1, r2, r3
    ret
.endp
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll,
		isa.OpSrl, isa.OpSra, isa.OpCmpEq, isa.OpCmpLt, isa.OpCmpLe,
		isa.OpCmpULt, isa.OpMul, isa.OpFAdd, isa.OpFMul, isa.OpFDiv, isa.OpRet,
	}
	for i, op := range want {
		in, _ := p.At(uint64(i) * isa.InstBytes)
		if in.Op != op {
			t.Errorf("inst %d = %v, want %v", i, in.Op, op)
		}
	}
	sub, _ := p.At(4)
	if !sub.UseImm || sub.Imm != 5 {
		t.Fatalf("immediate form: %v", sub)
	}
}

func TestAssembleControlForms(t *testing.T) {
	src := `
.proc main
    br    over
over:
    beq   r1, over
    bne   r1, over
    blt   r1, over
    bge   r1, over
    ble   r1, over
    bgt   r1, over
    jmp   (r9)
    ret   (r20)
    ret
.endp
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	jmp, _ := p.At(28)
	if jmp.Op != isa.OpJmp || jmp.Rb != 9 {
		t.Fatalf("jmp = %v", jmp)
	}
	retR, _ := p.At(32)
	if retR.Op != isa.OpRet || retR.Rb != 20 {
		t.Fatalf("ret (r20) = %v", retR)
	}
	ret, _ := p.At(36)
	if ret.Rb != isa.RegRA {
		t.Fatalf("default ret = %v", ret)
	}
}

func TestAssembleNegativeAndHex(t *testing.T) {
	p, err := Assemble(`
.proc main
    lda r1, -8(sp)
    lda r2, 0x40(zero)
    ld  r3, -16(sp)
    ret
.endp`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.At(0)
	if a.Imm != -8 || a.Rb != isa.RegSP {
		t.Fatalf("lda = %v", a)
	}
	b, _ := p.At(4)
	if b.Imm != 0x40 {
		t.Fatalf("hex = %v", b)
	}
	c, _ := p.At(8)
	if c.Imm != -16 {
		t.Fatalf("ld = %v", c)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown mnemonic", "frob r1, r2, r3"},
		{"bad register", "add r1, r99, r2"},
		{"missing operand", "add r1, r2"},
		{"bad label", "br 123abc"},
		{"inst in data", ".data\nadd r1, r2, r3"},
		{"unknown directive", ".bogus 3"},
		{"bad number", ".word zork"},
		{"negative space", ".space -4"},
		{"bad mem operand", "ld r1, r2"},
		{"dup label", "x:\nnop\nx:"},
		{"jsr without label", "jsr ra, (r5)"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestAssembleErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nfrob r1\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	p, err := Assemble(`
; full line comment
nop  ; trailing
nop  ; another trailing

`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	p, err := Assemble("main: nop\nloop: br loop\n")
	if err != nil {
		t.Fatal(err)
	}
	if pc, ok := p.Label("loop"); !ok || pc != 4 {
		t.Fatalf("loop label = %v, %v", pc, ok)
	}
}

func TestRoundTripThroughDisassembly(t *testing.T) {
	// Disassembly of an assembled program mentions each mnemonic we used.
	p := MustAssemble(loopSrc)
	d := p.Disassemble()
	for _, m := range []string{"lda", "ld r2", "add", "sub", "bne", "jsr", "ret"} {
		if !strings.Contains(d, m) {
			t.Errorf("disassembly missing %q:\n%s", m, d)
		}
	}
}

func TestWordLabel(t *testing.T) {
	p, err := Assemble(`
.proc main
    lda r1, jumptab(zero)
    ld  r2, 0(r1)
    jmp (r2)
target:
    ret
.endp
.data
.org 0x3000
jumptab:
    .word target, main, 42
`)
	if err != nil {
		t.Fatal(err)
	}
	targetPC, _ := p.Label("target")
	if p.Data[0x3000] != targetPC {
		t.Fatalf("jump table entry = %#x, want %#x", p.Data[0x3000], targetPC)
	}
	if p.Data[0x3008] != 0 { // main is at 0
		t.Fatalf("main entry = %#x", p.Data[0x3008])
	}
	if p.Data[0x3010] != 42 {
		t.Fatal("numeric word after labels broken")
	}
}

func TestWordLabelUndefined(t *testing.T) {
	_, err := Assemble(".data\n.word nosuchlabel\n")
	if err == nil {
		t.Fatal("undefined data label not caught")
	}
}

func TestAssemblePref(t *testing.T) {
	p, err := Assemble(`
.proc main
    lda  r4, 0x2000(zero)
    pref 128(r4)
    ld   r2, 0(r4)
    ret
.endp`)
	if err != nil {
		t.Fatal(err)
	}
	pref, _ := p.At(4)
	if pref.Op != isa.OpPref || pref.Imm != 128 || pref.Rb != 4 {
		t.Fatalf("pref = %v", pref)
	}
	if _, ok := pref.Dest(); ok {
		t.Fatal("pref must not write a register")
	}
	if srcs := pref.Srcs(nil); len(srcs) != 1 || srcs[0] != 4 {
		t.Fatalf("pref srcs = %v", srcs)
	}
	if s := pref.String(); s != "pref 128(r4)" {
		t.Fatalf("disasm = %q", s)
	}
	if _, err := Assemble("pref r1, 0(r2)"); err == nil {
		t.Fatal("bad pref operands accepted")
	}
}

// TestBuilderPref: a prefetch has no emitter of its own (the assembler's
// pref and the PGO rewriter both build the instruction), so the builder
// must carry one handed to Emit through Build unchanged.
func TestBuilderPref(t *testing.T) {
	b := NewBuilder()
	b.Proc("main").Emit(isa.Inst{Op: isa.OpPref, Rb: 5, Imm: 64}).Ret().EndProc()
	p := b.MustBuild()
	in, _ := p.At(0)
	if in.Op != isa.OpPref || in.Rb != 5 || in.Imm != 64 {
		t.Fatalf("pref = %v", in)
	}
}
