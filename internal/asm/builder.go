// Package asm turns programs into isa.Program images. It offers two layers:
//
//   - Builder: a programmatic emitter with label fixups, used by the
//     procedural workload generators in internal/workload.
//   - Assemble: a two-pass text assembler for a small Alpha-flavoured
//     syntax, used to write the hand-crafted benchmark kernels legibly.
package asm

import (
	"fmt"
	"sort"

	"profileme/internal/isa"
)

// Builder incrementally constructs a program image. Branch and call targets
// may name labels that are defined later; they are resolved by Build.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	insts      []isa.Inst
	labels     map[string]uint64
	data       map[uint64]uint64
	dataAddr   uint64
	procs      []isa.Proc
	openProc   string
	procFrom   uint64
	fixups     []fixup
	dataFixups []dataFixup
	entry      string // label execution starts at; "" means "main" when defined, else PC 0
	errs       []error
}

type dataFixup struct {
	addr  uint64
	label string
}

type fixup struct {
	inst  int    // index into insts
	label string // target label
	where string // context for error reporting
}

// NewBuilder returns an empty Builder. The data cursor starts at
// defaultDataBase so that data addresses never collide with code PCs.
func NewBuilder() *Builder {
	return &Builder{
		labels:   make(map[string]uint64),
		data:     make(map[uint64]uint64),
		dataAddr: defaultDataBase,
	}
}

// defaultDataBase is the address where the data segment starts unless
// overridden with Org.
const defaultDataBase uint64 = 0x1_0000

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.insts)) * isa.InstBytes }

// errf records a construction error; Build reports the first one.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("asm: "+format, args...))
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return b
	}
	b.labels[name] = b.PC()
	return b
}

// DataLabel binds name to the current data cursor.
func (b *Builder) DataLabel(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return b
	}
	b.labels[name] = b.dataAddr
	return b
}

// Proc opens a procedure. Procedures must not nest; an open procedure is
// closed by EndProc. A label with the procedure's name is bound as well.
func (b *Builder) Proc(name string) *Builder {
	if b.openProc != "" {
		b.errf("procedure %q opened inside %q", name, b.openProc)
		return b
	}
	b.openProc = name
	b.procFrom = b.PC()
	b.Label(name)
	return b
}

// EndProc closes the currently open procedure.
func (b *Builder) EndProc() *Builder {
	if b.openProc == "" {
		b.errf("EndProc with no open procedure")
		return b
	}
	b.procs = append(b.procs, isa.Proc{Name: b.openProc, Start: b.procFrom, End: b.PC()})
	b.openProc = ""
	return b
}

// Org moves the data cursor.
func (b *Builder) Org(addr uint64) *Builder {
	b.dataAddr = addr
	return b
}

// Word emits 64-bit data words at the data cursor.
func (b *Builder) Word(vs ...uint64) *Builder {
	for _, v := range vs {
		b.data[b.dataAddr] = v
		b.dataAddr += 8
	}
	return b
}

// wordLabel emits one 64-bit data word holding the value of a label
// (resolved at Build), e.g. a code address for a jump table.
func (b *Builder) wordLabel(label string) *Builder {
	b.dataFixups = append(b.dataFixups, dataFixup{addr: b.dataAddr, label: label})
	b.data[b.dataAddr] = 0
	b.dataAddr += 8
	return b
}

// Space reserves n bytes of zeroed data (rounded up to whole words).
func (b *Builder) Space(n uint64) *Builder {
	b.dataAddr += (n + 7) &^ 7
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

// emitTo appends a control-flow instruction whose Target will be resolved
// to label by Build.
func (b *Builder) emitTo(in isa.Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label,
		where: fmt.Sprintf("pc 0x%x (%s)", b.PC(), in.Op)})
	b.insts = append(b.insts, in)
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(isa.Inst{Op: isa.OpNop}) }

// Op3 emits a three-register ALU-style operation rc = ra op rb.
func (b *Builder) Op3(op isa.Op, rc, ra, rb isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
}

// OpI emits an immediate ALU-style operation rc = ra op imm.
func (b *Builder) OpI(op isa.Op, rc, ra isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: op, Ra: ra, Rc: rc, Imm: imm, UseImm: true})
}

// Add emits rc = ra + rb.
func (b *Builder) Add(rc, ra, rb isa.Reg) *Builder { return b.Op3(isa.OpAdd, rc, ra, rb) }

// AddI emits rc = ra + imm.
func (b *Builder) AddI(rc, ra isa.Reg, imm int64) *Builder { return b.OpI(isa.OpAdd, rc, ra, imm) }

// SubI emits rc = ra - imm.
func (b *Builder) SubI(rc, ra isa.Reg, imm int64) *Builder { return b.OpI(isa.OpSub, rc, ra, imm) }

// lda emits rc = rb + imm.
func (b *Builder) lda(rc, rb isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLda, Rb: rb, Rc: rc, Imm: imm})
}

// LdaLabel emits rc = address-of(label); the immediate is fixed up by Build.
func (b *Builder) LdaLabel(rc isa.Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label,
		where: fmt.Sprintf("pc 0x%x (lda)", b.PC())})
	return b.Emit(isa.Inst{Op: isa.OpLda, Rb: isa.RegZero, Rc: rc})
}

// LdI emits rc = constant via lda off zero.
func (b *Builder) LdI(rc isa.Reg, v int64) *Builder { return b.lda(rc, isa.RegZero, v) }

// Ld emits rc = mem[rb+off].
func (b *Builder) Ld(rc, rb isa.Reg, off int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLd, Rb: rb, Rc: rc, Imm: off})
}

// St emits mem[rb+off] = ra.
func (b *Builder) St(ra, rb isa.Reg, off int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpSt, Ra: ra, Rb: rb, Imm: off})
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.OpBr}, label)
}

// condBr emits a conditional branch testing ra against zero.
func (b *Builder) condBr(op isa.Op, ra isa.Reg, label string) *Builder {
	if op.Class() != isa.ClassBranch {
		b.errf("CondBr with non-branch op %v", op)
		return b
	}
	return b.emitTo(isa.Inst{Op: op, Ra: ra}, label)
}

// Beq emits a branch to label when ra == 0.
func (b *Builder) Beq(ra isa.Reg, label string) *Builder { return b.condBr(isa.OpBeq, ra, label) }

// Bne emits a branch to label when ra != 0.
func (b *Builder) Bne(ra isa.Reg, label string) *Builder { return b.condBr(isa.OpBne, ra, label) }

// Jsr emits a direct call to label, linking in RegRA.
func (b *Builder) Jsr(label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.OpJsr, Rc: isa.RegRA}, label)
}

// Ret emits a return through RegRA.
func (b *Builder) Ret() *Builder {
	return b.Emit(isa.Inst{Op: isa.OpRet, Rb: isa.RegRA})
}

// Build resolves fixups and returns the validated program image.
func (b *Builder) Build() (*isa.Program, error) {
	if b.openProc != "" {
		b.errf("procedure %q not closed", b.openProc)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		v, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q at %s", f.label, f.where)
		}
		in := &b.insts[f.inst]
		if in.Op == isa.OpLda {
			in.Imm = int64(v)
		} else {
			in.Target = v
		}
	}
	for _, f := range b.dataFixups {
		v, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q in data word", f.label)
		}
		b.data[f.addr] = v
	}
	procs := append([]isa.Proc(nil), b.procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })
	p := &isa.Program{
		Insts:  append([]isa.Inst(nil), b.insts...),
		Labels: b.labels,
		Procs:  procs,
		Data:   b.data,
	}
	if b.entry != "" {
		pc, ok := b.labels[b.entry]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry label %q", b.entry)
		}
		p.Entry = pc
	} else if pc, ok := b.labels["main"]; ok {
		p.Entry = pc
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error. For statically known-good
// programs in workloads and tests.
func (b *Builder) MustBuild() *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
