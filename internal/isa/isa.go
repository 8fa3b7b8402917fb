// Package isa defines the small Alpha-flavoured instruction set used by the
// ProfileMe reproduction: a load/store RISC architecture with 32 integer
// registers, PC-relative direct branches, register-indirect jumps, and a
// handful of long-latency "floating point" operations (which, to keep the
// functional simulator simple, operate on the same 64-bit integer register
// file — only their latency class differs).
//
// The ISA exists so that the out-of-order pipeline in internal/cpu has real
// programs to run: loops, procedure calls, pointer chases and branchy code
// whose fetch, issue and retire behaviour exercises every event ProfileMe
// records. It is deliberately minimal but complete: any workload in
// internal/workload is expressible, assemblable (internal/asm), executable
// (internal/sim) and timeable (internal/cpu).
package isa

import "fmt"

// Reg names an architectural register, 0 through 31. Register 31 always
// reads as zero and writes to it are discarded, as on the Alpha.
type Reg uint8

// Architectural register constants.
const (
	// NumRegs is the number of architectural integer registers.
	NumRegs = 32
	// RegZero always reads as zero.
	RegZero Reg = 31
	// RegSP is the conventional stack pointer.
	RegSP Reg = 30
	// RegRA is the conventional return-address (link) register.
	RegRA Reg = 26
)

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch r {
	case RegZero:
		return "zero"
	case RegSP:
		return "sp"
	case RegRA:
		return "ra"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// valid reports whether r names an architectural register.
func (r Reg) valid() bool { return r < NumRegs }

// Op is an operation code.
type Op uint8

// Operation codes. Grouped by class; see Op.Class.
const (
	OpNop Op = iota

	// Integer ALU (1-cycle). Three-operand: Rc = Ra op (Rb | Imm).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpCmpEq // Rc = (Ra == src2) ? 1 : 0
	OpCmpLt // signed <
	OpCmpLe // signed <=
	OpCmpULt
	OpLda // Rc = Rb + Imm (address/constant formation)

	// Integer multiply (long latency).
	OpMul

	// "Floating point" classes: integer semantics, FP issue queue and
	// latency. Fadd/Fmul are pipelined; Fdiv is unpipelined.
	OpFAdd
	OpFMul
	OpFDiv

	// Memory. Ld: Rc = mem[Rb+Imm]. St: mem[Rb+Imm] = Ra.
	OpLd
	OpSt
	// Pref touches mem[Rb+Imm] to pull the line into the data cache but
	// writes no register and never faults — the prefetch instruction
	// profile-guided optimization inserts (paper §7, "the insertion of
	// prefetches").
	OpPref

	// Control.
	OpBr  // unconditional direct branch to Target
	OpBeq // branch to Target when Ra == 0
	OpBne // ... Ra != 0
	OpBlt // ... Ra < 0 (signed)
	OpBge // ... Ra >= 0
	OpBle // ... Ra <= 0
	OpBgt // ... Ra > 0
	OpJsr // direct call: Rc = PC+4 (link), jump to Target
	OpJmp // indirect jump to the address in Rb
	OpRet // indirect return to the address in Rb (conventionally ra)
)

var opNames = [...]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpSll: "sll", OpSrl: "srl", OpSra: "sra",
	OpCmpEq: "cmpeq", OpCmpLt: "cmplt", OpCmpLe: "cmple", OpCmpULt: "cmpult",
	OpLda: "lda", OpMul: "mul",
	OpFAdd: "fadd", OpFMul: "fmul", OpFDiv: "fdiv",
	OpLd: "ld", OpSt: "st", OpPref: "pref",
	OpBr: "br", OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBle: "ble", OpBgt: "bgt", OpJsr: "jsr", OpJmp: "jmp", OpRet: "ret",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class partitions operations by the pipeline resources they use.
type Class uint8

// Operation classes, in the order the issue logic distinguishes them.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassFAdd // pipelined FP
	ClassFDiv // unpipelined FP
	ClassLoad
	ClassStore
	ClassBranch // conditional direct branch
	ClassJump   // unconditional direct branch
	ClassCall   // direct call (writes link register)
	ClassJmpInd // indirect jump
	ClassRet    // indirect return
)

var classNames = [...]string{
	ClassNop: "nop", ClassIntALU: "ialu", ClassIntMul: "imul",
	ClassFAdd: "fadd", ClassFDiv: "fdiv", ClassLoad: "load",
	ClassStore: "store", ClassBranch: "cbr", ClassJump: "jump",
	ClassCall: "call", ClassJmpInd: "ijmp", ClassRet: "ret",
}

// String returns a short name for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Class returns the pipeline class of op.
func (op Op) Class() Class {
	switch op {
	case OpNop:
		return ClassNop
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSra,
		OpCmpEq, OpCmpLt, OpCmpLe, OpCmpULt, OpLda:
		return ClassIntALU
	case OpMul:
		return ClassIntMul
	case OpFAdd, OpFMul:
		return ClassFAdd
	case OpFDiv:
		return ClassFDiv
	case OpLd, OpPref:
		return ClassLoad
	case OpSt:
		return ClassStore
	case OpBr:
		return ClassJump
	case OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt:
		return ClassBranch
	case OpJsr:
		return ClassCall
	case OpJmp:
		return ClassJmpInd
	case OpRet:
		return ClassRet
	default:
		return ClassNop
	}
}

// IsControl reports whether op can redirect the PC.
func (op Op) IsControl() bool {
	switch op.Class() {
	case ClassBranch, ClassJump, ClassCall, ClassJmpInd, ClassRet:
		return true
	}
	return false
}

// IsConditional reports whether op is a conditional branch.
func (op Op) IsConditional() bool { return op.Class() == ClassBranch }

// IsIndirect reports whether op's target comes from a register.
func (op Op) IsIndirect() bool {
	c := op.Class()
	return c == ClassJmpInd || c == ClassRet
}

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool {
	c := op.Class()
	return c == ClassLoad || c == ClassStore
}

// InstBytes is the size of one instruction; PCs advance by this amount.
const InstBytes = 4

// Inst is a decoded instruction. The interpretation of the fields depends
// on the class:
//
//	ALU/mul/FP: Rc = Ra op src2, where src2 is Rb or Imm (UseImm).
//	lda:        Rc = Rb + Imm.
//	ld:         Rc = mem[Rb+Imm];  st: mem[Rb+Imm] = Ra.
//	branches:   test Ra, jump to Target (conditional) or always.
//	jsr:        Rc = link, jump to Target.
//	jmp/ret:    jump to value in Rb.
type Inst struct {
	Op     Op
	Ra     Reg    // first source (also the store value and branch condition)
	Rb     Reg    // second source / base register / indirect target
	Rc     Reg    // destination (link register for jsr)
	Imm    int64  // immediate operand or memory displacement
	Target uint64 // static target PC for direct branches and calls
	UseImm bool   // ALU second operand is Imm rather than Rb
}

// Dest returns the destination register and whether the instruction writes
// one. Writes to RegZero are reported as no destination.
func (in Inst) Dest() (Reg, bool) {
	var d Reg
	switch in.Op.Class() {
	case ClassIntALU, ClassIntMul, ClassFAdd, ClassFDiv, ClassLoad, ClassCall:
		if in.Op == OpPref {
			return 0, false // prefetches write nothing
		}
		d = in.Rc
	default:
		return 0, false
	}
	if d == RegZero {
		return 0, false
	}
	return d, true
}

// Srcs appends the source registers the instruction reads to dst and
// returns it. Reads of RegZero are omitted (they never create dependences).
func (in Inst) Srcs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegZero {
			dst = append(dst, r)
		}
	}
	switch in.Op.Class() {
	case ClassIntALU, ClassIntMul, ClassFAdd, ClassFDiv:
		if in.Op == OpLda {
			add(in.Rb)
			break
		}
		add(in.Ra)
		if !in.UseImm {
			add(in.Rb)
		}
	case ClassLoad:
		add(in.Rb)
	case ClassStore:
		add(in.Ra)
		add(in.Rb)
	case ClassBranch:
		add(in.Ra)
	case ClassJmpInd, ClassRet:
		add(in.Rb)
	}
	return dst
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch in.Op.Class() {
	case ClassNop:
		return "nop"
	case ClassIntALU, ClassIntMul, ClassFAdd, ClassFDiv:
		if in.Op == OpLda {
			return fmt.Sprintf("lda %s, %d(%s)", in.Rc, in.Imm, in.Rb)
		}
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Rc, in.Ra, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rc, in.Ra, in.Rb)
	case ClassLoad:
		if in.Op == OpPref {
			return fmt.Sprintf("pref %d(%s)", in.Imm, in.Rb)
		}
		return fmt.Sprintf("ld %s, %d(%s)", in.Rc, in.Imm, in.Rb)
	case ClassStore:
		return fmt.Sprintf("st %s, %d(%s)", in.Ra, in.Imm, in.Rb)
	case ClassBranch:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Ra, in.Target)
	case ClassJump:
		return fmt.Sprintf("br 0x%x", in.Target)
	case ClassCall:
		return fmt.Sprintf("jsr %s, 0x%x", in.Rc, in.Target)
	case ClassJmpInd:
		return fmt.Sprintf("jmp (%s)", in.Rb)
	case ClassRet:
		return fmt.Sprintf("ret (%s)", in.Rb)
	}
	return in.Op.String()
}
