package asm

import (
	"fmt"
	"strconv"
	"strings"

	"profileme/internal/isa"
)

// Assemble parses the text assembly source and returns a program image.
//
// Syntax, one statement per line (";" starts a comment; "#" marks an
// immediate operand):
//
//	label:                       bind label to current PC (or data cursor)
//	.proc name / .endp           bracket a procedure
//	.entry label                 set the entry point (default: main, else 0)
//	.data / .text                switch sections
//	.org ADDR                    move the data cursor
//	.word v, v, ...              emit 64-bit data words
//	.space N                     reserve N zeroed bytes
//	.equ name, value             define an assembly-time constant
//
//	add  rc, ra, rb              three-register ALU op (sub/and/or/xor/sll/
//	add  rc, ra, #imm            srl/sra/cmpeq/cmplt/cmple/cmpult/mul/
//	                             fadd/fmul/fdiv likewise)
//	lda  rc, imm(rb)             rc = rb + imm; imm may be a label
//	ld   rc, off(rb)             load;  st ra, off(rb)  store
//	br   label                   unconditional branch
//	beq  ra, label               conditional branches (bne/blt/bge/ble/bgt)
//	jsr  ra, label               direct call (link register explicit)
//	jmp  (rb)                    indirect jump
//	ret  (rb)  |  ret            indirect return (default ra)
//	nop
//
// Numbers are decimal or 0x-prefixed hex, optionally negative.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{b: NewBuilder(), equ: make(map[string]int64)}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.b.Build()
}

// MustAssemble is Assemble, panicking on error. For static program text in
// workloads and tests.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	b      *Builder
	equ    map[string]int64
	inData bool
	line   int
}

func (a *assembler) errf(format string, args ...any) error {
	return fmt.Errorf("asm: line %d: "+format, append([]any{a.line}, args...)...)
}

func (a *assembler) run(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		line := raw
		if j := strings.IndexByte(line, ';'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by a statement on the same line.
		for {
			j := strings.Index(line, ":")
			if j < 0 {
				break
			}
			name := strings.TrimSpace(line[:j])
			if !isIdent(name) {
				return a.errf("bad label %q", name)
			}
			if a.inData {
				a.b.DataLabel(name)
			} else {
				a.b.Label(name)
			}
			line = strings.TrimSpace(line[j+1:])
		}
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) statement(line string) error {
	op, rest, _ := strings.Cut(line, " ")
	op = strings.ToLower(strings.TrimSpace(op))
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(op, ".") {
		return a.directive(op, rest)
	}
	if a.inData {
		return a.errf("instruction %q in .data section", op)
	}
	return a.instruction(op, rest)
}

func (a *assembler) directive(dir, rest string) error {
	switch dir {
	case ".proc":
		if !isIdent(rest) {
			return a.errf(".proc needs a name")
		}
		a.b.Proc(rest)
	case ".endp":
		a.b.EndProc()
	case ".entry":
		if !isIdent(rest) {
			return a.errf(".entry needs a label")
		}
		a.b.entry = rest
	case ".data":
		a.inData = true
	case ".text":
		a.inData = false
	case ".org":
		v, err := a.number(rest)
		if err != nil {
			return err
		}
		a.b.Org(uint64(v))
	case ".word":
		for _, f := range splitOperands(rest) {
			if v, err := a.number(f); err == nil {
				a.b.Word(uint64(v))
			} else if isIdent(f) {
				a.b.wordLabel(f)
			} else {
				return err
			}
		}
	case ".space":
		v, err := a.number(rest)
		if err != nil {
			return err
		}
		if v < 0 {
			return a.errf(".space with negative size")
		}
		a.b.Space(uint64(v))
	case ".equ":
		fs := splitOperands(rest)
		if len(fs) != 2 || !isIdent(fs[0]) {
			return a.errf(".equ needs name, value")
		}
		v, err := a.number(fs[1])
		if err != nil {
			return err
		}
		a.equ[fs[0]] = v
	default:
		return a.errf("unknown directive %q", dir)
	}
	return nil
}

var aluOps = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "and": isa.OpAnd, "or": isa.OpOr,
	"xor": isa.OpXor, "sll": isa.OpSll, "srl": isa.OpSrl, "sra": isa.OpSra,
	"cmpeq": isa.OpCmpEq, "cmplt": isa.OpCmpLt, "cmple": isa.OpCmpLe,
	"cmpult": isa.OpCmpULt, "mul": isa.OpMul,
	"fadd": isa.OpFAdd, "fmul": isa.OpFMul, "fdiv": isa.OpFDiv,
}

var brOps = map[string]isa.Op{
	"beq": isa.OpBeq, "bne": isa.OpBne, "blt": isa.OpBlt,
	"bge": isa.OpBge, "ble": isa.OpBle, "bgt": isa.OpBgt,
}

func (a *assembler) instruction(op, rest string) error {
	fs := splitOperands(rest)
	switch {
	case op == "nop":
		if len(fs) != 0 {
			return a.errf("nop takes no operands")
		}
		a.b.Nop()

	case aluOps[op] != 0:
		if len(fs) != 3 {
			return a.errf("%s needs rc, ra, src2", op)
		}
		rc, err := a.reg(fs[0])
		if err != nil {
			return err
		}
		ra, err := a.reg(fs[1])
		if err != nil {
			return err
		}
		if imm, ok, err := a.immOperand(fs[2]); err != nil {
			return err
		} else if ok {
			a.b.OpI(aluOps[op], rc, ra, imm)
		} else {
			rb, err := a.reg(fs[2])
			if err != nil {
				return err
			}
			a.b.Op3(aluOps[op], rc, ra, rb)
		}

	case op == "lda":
		if len(fs) != 2 {
			return a.errf("lda needs rc, imm(rb)")
		}
		rc, err := a.reg(fs[0])
		if err != nil {
			return err
		}
		immStr, rb, err := a.memOperand(fs[1])
		if err != nil {
			return err
		}
		if v, err := a.number(immStr); err == nil {
			a.b.lda(rc, rb, v)
		} else if isIdent(immStr) && rb == isa.RegZero {
			a.b.LdaLabel(rc, immStr)
		} else {
			return a.errf("bad lda operand %q", fs[1])
		}

	case op == "pref":
		if len(fs) != 1 {
			return a.errf("pref needs off(rb)")
		}
		offStr, rb, err := a.memOperand(fs[0])
		if err != nil {
			return err
		}
		off, err := a.number(offStr)
		if err != nil {
			return err
		}
		a.b.Emit(isa.Inst{Op: isa.OpPref, Rb: rb, Imm: off})

	case op == "ld" || op == "st":
		if len(fs) != 2 {
			return a.errf("%s needs reg, off(rb)", op)
		}
		r, err := a.reg(fs[0])
		if err != nil {
			return err
		}
		offStr, rb, err := a.memOperand(fs[1])
		if err != nil {
			return err
		}
		off, err := a.number(offStr)
		if err != nil {
			return err
		}
		if op == "ld" {
			a.b.Ld(r, rb, off)
		} else {
			a.b.St(r, rb, off)
		}

	case op == "br":
		if len(fs) != 1 || !isIdent(fs[0]) {
			return a.errf("br needs a label")
		}
		a.b.Br(fs[0])

	case brOps[op] != 0:
		if len(fs) != 2 {
			return a.errf("%s needs ra, label", op)
		}
		ra, err := a.reg(fs[0])
		if err != nil {
			return err
		}
		if !isIdent(fs[1]) {
			return a.errf("%s needs a label target", op)
		}
		a.b.condBr(brOps[op], ra, fs[1])

	case op == "jsr":
		if len(fs) != 2 {
			return a.errf("jsr needs link-reg, label")
		}
		rc, err := a.reg(fs[0])
		if err != nil {
			return err
		}
		if !isIdent(fs[1]) {
			return a.errf("jsr needs a label target")
		}
		a.b.emitTo(isa.Inst{Op: isa.OpJsr, Rc: rc}, fs[1])

	case op == "jmp":
		if len(fs) != 1 {
			return a.errf("jmp needs (rb)")
		}
		rb, err := a.parenReg(fs[0])
		if err != nil {
			return err
		}
		a.b.Emit(isa.Inst{Op: isa.OpJmp, Rb: rb})

	case op == "ret":
		rb := isa.RegRA
		if len(fs) == 1 {
			var err error
			if rb, err = a.parenReg(fs[0]); err != nil {
				return err
			}
		} else if len(fs) != 0 {
			return a.errf("ret takes at most one operand")
		}
		a.b.Emit(isa.Inst{Op: isa.OpRet, Rb: rb})

	default:
		return a.errf("unknown mnemonic %q", op)
	}
	return nil
}

// immOperand reports whether f is an immediate ("#n" or a bare number or
// .equ constant) and its value.
func (a *assembler) immOperand(f string) (int64, bool, error) {
	s := f
	explicit := strings.HasPrefix(s, "#")
	if explicit {
		s = s[1:]
	}
	if v, ok := a.equ[s]; ok {
		return v, true, nil
	}
	v, err := parseNumber(s)
	if err != nil {
		if explicit {
			return 0, false, a.errf("bad immediate %q", f)
		}
		return 0, false, nil
	}
	return v, true, nil
}

// memOperand splits "off(rb)" into its displacement text and base register.
func (a *assembler) memOperand(f string) (string, isa.Reg, error) {
	open := strings.Index(f, "(")
	if open < 0 || !strings.HasSuffix(f, ")") {
		return "", 0, a.errf("bad memory operand %q", f)
	}
	rb, err := a.reg(f[open+1 : len(f)-1])
	if err != nil {
		return "", 0, err
	}
	return strings.TrimSpace(f[:open]), rb, nil
}

func (a *assembler) parenReg(f string) (isa.Reg, error) {
	if !strings.HasPrefix(f, "(") || !strings.HasSuffix(f, ")") {
		return 0, a.errf("expected (reg), got %q", f)
	}
	return a.reg(f[1 : len(f)-1])
}

func (a *assembler) reg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "zero":
		return isa.RegZero, nil
	case "sp":
		return isa.RegSP, nil
	case "ra":
		return isa.RegRA, nil
	}
	if strings.HasPrefix(s, "r") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, a.errf("bad register %q", s)
}

func (a *assembler) number(s string) (int64, error) {
	s = strings.TrimSpace(strings.TrimPrefix(s, "#"))
	if v, ok := a.equ[s]; ok {
		return v, nil
	}
	v, err := parseNumber(s)
	if err != nil {
		return 0, a.errf("bad number %q", s)
	}
	return v, nil
}

func parseNumber(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(strings.ToLower(s), "0x") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
