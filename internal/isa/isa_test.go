package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	for op := Op(0); int(op) < len(opNames); op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
	}
}

func TestClassCoverage(t *testing.T) {
	// Every op has a class, and the class's predicates are consistent.
	for op := Op(0); int(op) < len(opNames); op++ {
		c := op.Class()
		if c.String() == "" {
			t.Errorf("%v: empty class name", op)
		}
		if op.IsConditional() && c != ClassBranch {
			t.Errorf("%v: conditional but class %v", op, c)
		}
		if op.IsIndirect() && !(c == ClassJmpInd || c == ClassRet) {
			t.Errorf("%v: indirect with class %v", op, c)
		}
		if op.IsMem() != (c == ClassLoad || c == ClassStore) {
			t.Errorf("%v: IsMem inconsistent with class %v", op, c)
		}
	}
}

func TestControlOps(t *testing.T) {
	controls := []Op{OpBr, OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt, OpJsr, OpJmp, OpRet}
	for _, op := range controls {
		if !op.IsControl() {
			t.Errorf("%v should be control", op)
		}
	}
	for _, op := range []Op{OpAdd, OpLd, OpSt, OpNop, OpFAdd} {
		if op.IsControl() {
			t.Errorf("%v should not be control", op)
		}
	}
}

func TestDestRules(t *testing.T) {
	cases := []struct {
		in   Inst
		reg  Reg
		want bool
	}{
		{Inst{Op: OpAdd, Ra: 1, Rb: 2, Rc: 3}, 3, true},
		{Inst{Op: OpAdd, Ra: 1, Rb: 2, Rc: RegZero}, 0, false},
		{Inst{Op: OpLd, Rb: 2, Rc: 5}, 5, true},
		{Inst{Op: OpSt, Ra: 1, Rb: 2}, 0, false},
		{Inst{Op: OpJsr, Rc: RegRA}, RegRA, true},
		{Inst{Op: OpBeq, Ra: 4}, 0, false},
		{Inst{Op: OpRet, Rb: RegRA}, 0, false},
		{Inst{Op: OpNop}, 0, false},
		{Inst{Op: OpFDiv, Ra: 1, Rb: 2, Rc: 9}, 9, true},
	}
	for _, c := range cases {
		r, ok := c.in.Dest()
		if ok != c.want || (ok && r != c.reg) {
			t.Errorf("%v: Dest() = (%v, %v), want (%v, %v)", c.in, r, ok, c.reg, c.want)
		}
	}
}

func TestSrcsRules(t *testing.T) {
	cases := []struct {
		in   Inst
		want []Reg
	}{
		{Inst{Op: OpAdd, Ra: 1, Rb: 2, Rc: 3}, []Reg{1, 2}},
		{Inst{Op: OpAdd, Ra: 1, Rc: 3, UseImm: true, Imm: 7}, []Reg{1}},
		{Inst{Op: OpLda, Rb: 4, Rc: 3, Imm: 8}, []Reg{4}},
		{Inst{Op: OpLda, Rb: RegZero, Rc: 3, Imm: 8}, nil},
		{Inst{Op: OpLd, Rb: 2, Rc: 5, Imm: 16}, []Reg{2}},
		{Inst{Op: OpSt, Ra: 7, Rb: 2, Imm: 16}, []Reg{7, 2}},
		{Inst{Op: OpBeq, Ra: 4}, []Reg{4}},
		{Inst{Op: OpBr}, nil},
		{Inst{Op: OpJmp, Rb: 9}, []Reg{9}},
		{Inst{Op: OpRet, Rb: RegRA}, []Reg{RegRA}},
		{Inst{Op: OpAdd, Ra: RegZero, Rb: RegZero, Rc: 1}, nil},
	}
	for _, c := range cases {
		got := c.in.Srcs(nil)
		if len(got) != len(c.want) {
			t.Errorf("%v: Srcs = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: Srcs = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestSrcsNeverIncludesZero(t *testing.T) {
	f := func(op uint8, ra, rb, rc uint8, useImm bool) bool {
		in := Inst{
			Op: Op(op % uint8(len(opNames))), Ra: Reg(ra % NumRegs),
			Rb: Reg(rb % NumRegs), Rc: Reg(rc % NumRegs), UseImm: useImm,
		}
		for _, s := range in.Srcs(nil) {
			if s == RegZero || !s.valid() {
				return false
			}
		}
		if d, ok := in.Dest(); ok && (d == RegZero || !d.valid()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Ra: 1, Rb: 2, Rc: 3}, "add r3, r1, r2"},
		{Inst{Op: OpAdd, Ra: 1, Rc: 3, UseImm: true, Imm: -4}, "add r3, r1, #-4"},
		{Inst{Op: OpLd, Rb: 2, Rc: 5, Imm: 16}, "ld r5, 16(r2)"},
		{Inst{Op: OpSt, Ra: 5, Rb: 2, Imm: 16}, "st r5, 16(r2)"},
		{Inst{Op: OpBeq, Ra: 4, Target: 0x40}, "beq r4, 0x40"},
		{Inst{Op: OpJsr, Rc: RegRA, Target: 0x80}, "jsr ra, 0x80"},
		{Inst{Op: OpRet, Rb: RegRA}, "ret (ra)"},
		{Inst{Op: OpNop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRegString(t *testing.T) {
	if RegZero.String() != "zero" || RegSP.String() != "sp" || RegRA.String() != "ra" {
		t.Fatal("special register names wrong")
	}
	if Reg(5).String() != "r5" {
		t.Fatal("r5 name wrong")
	}
}

func testProgram() *Program {
	return &Program{
		Insts: []Inst{
			{Op: OpLda, Rc: 1, Rb: RegZero, Imm: 10},
			{Op: OpAdd, Ra: 1, Rc: 1, UseImm: true, Imm: -1},
			{Op: OpBne, Ra: 1, Target: 4},
			{Op: OpRet, Rb: RegRA},
		},
		Labels: map[string]uint64{"main": 0, "loop": 4},
		Procs:  []Proc{{Name: "main", Start: 0, End: 16}},
	}
}

func TestProgramAt(t *testing.T) {
	p := testProgram()
	if in, ok := p.At(4); !ok || in.Op != OpAdd {
		t.Fatalf("At(4) = %v, %v", in, ok)
	}
	if _, ok := p.At(5); ok {
		t.Fatal("misaligned At should fail")
	}
	if _, ok := p.At(16); ok {
		t.Fatal("out-of-range At should fail")
	}
	if p.Len() != 4 || p.MaxPC() != 16 {
		t.Fatalf("Len=%d MaxPC=%d", p.Len(), p.MaxPC())
	}
}

func TestProgramProcLookup(t *testing.T) {
	p := testProgram()
	if pr := p.ProcAt(8); pr == nil || pr.Name != "main" {
		t.Fatal("ProcAt(8) failed")
	}
	if pr := p.ProcAt(100); pr != nil {
		t.Fatal("ProcAt(100) should be nil")
	}
	if pr := p.ProcByName("main"); pr == nil {
		t.Fatal("ProcByName failed")
	}
	if pr := p.ProcByName("nope"); pr != nil {
		t.Fatal("ProcByName(nope) should be nil")
	}
	if s := p.SymbolFor(8); s != "main+0x8" {
		t.Fatalf("SymbolFor = %q", s)
	}
	if s := p.SymbolFor(0x100); s != "0x100" {
		t.Fatalf("SymbolFor out of range = %q", s)
	}
}

func TestProgramValidateOK(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramValidateBadTarget(t *testing.T) {
	p := testProgram()
	p.Insts[2].Target = 1000
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-image target not caught")
	}
	p.Insts[2].Target = 2
	if err := p.Validate(); err == nil {
		t.Fatal("misaligned target not caught")
	}
}

func TestProgramValidateBadProcs(t *testing.T) {
	p := testProgram()
	p.Procs = []Proc{{Name: "a", Start: 0, End: 12}, {Name: "b", Start: 8, End: 16}}
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping procs not caught")
	}
	p.Procs = []Proc{{Name: "a", Start: 8, End: 8}}
	if err := p.Validate(); err == nil {
		t.Fatal("empty proc not caught")
	}
	p.Procs = []Proc{{Name: "a", Start: 0, End: 100}}
	if err := p.Validate(); err == nil {
		t.Fatal("proc past image end not caught")
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	d := testProgram().Disassemble()
	if !strings.Contains(d, "loop:") || !strings.Contains(d, "main:") {
		t.Fatalf("disassembly missing labels:\n%s", d)
	}
	if !strings.Contains(d, "bne r1, 0x4") {
		t.Fatalf("disassembly missing branch:\n%s", d)
	}
}
