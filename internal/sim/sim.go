// Package sim executes programs functionally: architectural registers and
// data memory, one instruction at a time, in program order. It produces the
// dynamic instruction stream (Records) that drives everything downstream —
// the timing pipeline replays it as the correct path, the path profiler
// computes branch histories over it, and the fast-sampling mode of the
// convergence experiment samples it directly.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"profileme/internal/isa"
)

// haltPC is the sentinel return address installed in the link register at
// startup; a control transfer to it ends the program (a "return from main").
const haltPC uint64 = 0xffff_ffff_ffff_fff0

// Record describes one dynamically executed (correct-path) instruction.
type Record struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     uint64
	Inst   isa.Inst
	Taken  bool   // control only: did it redirect the PC?
	Target uint64 // the PC of the next executed instruction
	EA     uint64 // memory ops only: effective address
}

// Data memory is paged: each page holds the 64-bit words of memPageWords
// consecutive byte addresses, so every address still names an independent
// word — exactly the semantics of the flat map this replaces (unaligned
// effective addresses included) — but the per-instruction map lookup on
// the execute hot path drops to a shift-and-mask plus a last-page cache
// hit for the common sequential access.
const (
	memPageShift = 6
	memPageWords = 1 << memPageShift
	memPageMask  = memPageWords - 1
)

type memPage [memPageWords]uint64

// Machine is the architectural state. Create with New; step with Step or
// Run. Not safe for concurrent use.
type Machine struct {
	prog   *isa.Program
	regs   [isa.NumRegs]uint64
	pages  map[uint64]*memPage
	lastPg *memPage // last page touched (nil until first access)
	lastPK uint64   // its page key
	pc     uint64
	seq    uint64
	halted bool
}

// ErrNoInst is returned when execution reaches a PC with no instruction.
var ErrNoInst = errors.New("sim: PC outside program image")

// New returns a machine loaded with prog: PC at the entry point, data
// memory initialized from the image, the link register set to haltPC and
// the stack pointer parked above the data segment.
func New(prog *isa.Program) *Machine {
	m := &Machine{prog: prog, pages: make(map[uint64]*memPage, len(prog.Data)/memPageWords+16)}
	for a, v := range prog.Data {
		m.store(a, v)
	}
	m.pc = prog.Entry
	m.regs[isa.RegRA] = haltPC
	m.regs[isa.RegSP] = 0x7f_0000
	return m
}

// load reads the word at byte address addr (unmapped reads as zero).
func (m *Machine) load(addr uint64) uint64 {
	key := addr >> memPageShift
	if pg := m.lastPg; pg != nil && m.lastPK == key {
		return pg[addr&memPageMask]
	}
	pg := m.pages[key]
	if pg == nil {
		return 0
	}
	m.lastPg, m.lastPK = pg, key
	return pg[addr&memPageMask]
}

// store writes the word at byte address addr, faulting a page in if needed.
func (m *Machine) store(addr, v uint64) {
	key := addr >> memPageShift
	pg := m.lastPg
	if pg == nil || m.lastPK != key {
		pg = m.pages[key]
		if pg == nil {
			pg = new(memPage)
			m.pages[key] = pg
		}
		m.lastPg, m.lastPK = pg, key
	}
	pg[addr&memPageMask] = v
}

// Halted reports whether the program has ended.
func (m *Machine) Halted() bool { return m.halted }

// Reg returns the value of architectural register r.
func (m *Machine) Reg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return m.regs[r]
}

// setReg writes architectural register r (writes to the zero register are
// discarded).
func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
}

// MemWord is one (address, value) pair of a memory snapshot.
type MemWord struct {
	Addr, Val uint64
}

// Snapshot returns the architectural state in canonical form: the register
// file plus every nonzero data-memory word, sorted by address. Zero-valued
// words are omitted because an untouched location also reads as zero, so
// the canonical form is independent of which locations were ever written —
// and therefore of the memory representation. The differential test
// harness digests this to pin final-state equivalence across simulator
// optimizations.
func (m *Machine) Snapshot() (regs [isa.NumRegs]uint64, mem []MemWord) {
	regs = m.regs
	regs[isa.RegZero] = 0
	for key, pg := range m.pages {
		base := key << memPageShift
		for off, v := range pg {
			if v != 0 {
				mem = append(mem, MemWord{Addr: base + uint64(off), Val: v})
			}
		}
	}
	sort.Slice(mem, func(i, j int) bool { return mem[i].Addr < mem[j].Addr })
	return regs, mem
}

// Step executes one instruction and returns its record. After the program
// halts, Step keeps returning (Record{}, false, nil).
func (m *Machine) Step() (Record, bool, error) {
	if m.halted {
		return Record{}, false, nil
	}
	in, ok := m.prog.At(m.pc)
	if !ok {
		return Record{}, false, fmt.Errorf("%w: %#x", ErrNoInst, m.pc)
	}
	r := Record{Seq: m.seq, PC: m.pc, Inst: in}
	next := m.pc + isa.InstBytes

	src2 := func() uint64 {
		if in.UseImm {
			return uint64(in.Imm)
		}
		return m.Reg(in.Rb)
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.setReg(in.Rc, m.Reg(in.Ra)+src2())
	case isa.OpSub:
		m.setReg(in.Rc, m.Reg(in.Ra)-src2())
	case isa.OpAnd:
		m.setReg(in.Rc, m.Reg(in.Ra)&src2())
	case isa.OpOr:
		m.setReg(in.Rc, m.Reg(in.Ra)|src2())
	case isa.OpXor:
		m.setReg(in.Rc, m.Reg(in.Ra)^src2())
	case isa.OpSll:
		m.setReg(in.Rc, m.Reg(in.Ra)<<(src2()&63))
	case isa.OpSrl:
		m.setReg(in.Rc, m.Reg(in.Ra)>>(src2()&63))
	case isa.OpSra:
		m.setReg(in.Rc, uint64(int64(m.Reg(in.Ra))>>(src2()&63)))
	case isa.OpCmpEq:
		m.setReg(in.Rc, b2u(m.Reg(in.Ra) == src2()))
	case isa.OpCmpLt:
		m.setReg(in.Rc, b2u(int64(m.Reg(in.Ra)) < int64(src2())))
	case isa.OpCmpLe:
		m.setReg(in.Rc, b2u(int64(m.Reg(in.Ra)) <= int64(src2())))
	case isa.OpCmpULt:
		m.setReg(in.Rc, b2u(m.Reg(in.Ra) < src2()))
	case isa.OpLda:
		m.setReg(in.Rc, m.Reg(in.Rb)+uint64(in.Imm))
	case isa.OpMul:
		m.setReg(in.Rc, m.Reg(in.Ra)*src2())
	case isa.OpFAdd:
		m.setReg(in.Rc, m.Reg(in.Ra)+src2())
	case isa.OpFMul:
		m.setReg(in.Rc, m.Reg(in.Ra)*src2())
	case isa.OpFDiv:
		d := src2()
		if d == 0 {
			m.setReg(in.Rc, 0)
		} else {
			m.setReg(in.Rc, m.Reg(in.Ra)/d)
		}

	case isa.OpLd:
		r.EA = m.Reg(in.Rb) + uint64(in.Imm)
		m.setReg(in.Rc, m.load(r.EA))
	case isa.OpPref:
		r.EA = m.Reg(in.Rb) + uint64(in.Imm) // cache touch only
	case isa.OpSt:
		r.EA = m.Reg(in.Rb) + uint64(in.Imm)
		m.store(r.EA, m.Reg(in.Ra))

	case isa.OpBr:
		r.Taken, next = true, in.Target
	case isa.OpBeq:
		if m.Reg(in.Ra) == 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpBne:
		if m.Reg(in.Ra) != 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpBlt:
		if int64(m.Reg(in.Ra)) < 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpBge:
		if int64(m.Reg(in.Ra)) >= 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpBle:
		if int64(m.Reg(in.Ra)) <= 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpBgt:
		if int64(m.Reg(in.Ra)) > 0 {
			r.Taken, next = true, in.Target
		}
	case isa.OpJsr:
		m.setReg(in.Rc, m.pc+isa.InstBytes)
		r.Taken, next = true, in.Target
	case isa.OpJmp:
		r.Taken, next = true, m.Reg(in.Rb)
	case isa.OpRet:
		r.Taken, next = true, m.Reg(in.Rb)

	default:
		return Record{}, false, fmt.Errorf("sim: pc %#x: unimplemented op %v", m.pc, in.Op)
	}

	r.Target = next
	m.seq++
	if next == haltPC {
		m.halted = true
	} else {
		m.pc = next
	}
	return r, true, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run executes until the program halts, an error occurs, or max
// instructions have run (max <= 0 means no limit), calling visit for each
// record. visit may be nil. It returns the number of instructions executed.
func (m *Machine) Run(max uint64, visit func(Record)) (uint64, error) {
	var n uint64
	for !m.halted && (max <= 0 || n < max) {
		r, ok, err := m.Step()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if visit != nil {
			visit(r)
		}
		n++
	}
	return n, nil
}

// Trace executes up to max instructions (<= 0 for no limit) and returns
// the records. Intended for small programs and tests; large runs should
// stream with Run.
func Trace(prog *isa.Program, max uint64) ([]Record, error) {
	m := New(prog)
	var recs []Record
	_, err := m.Run(max, func(r Record) { recs = append(recs, r) })
	return recs, err
}

// Source yields the dynamic instruction stream one record at a time. The
// timing pipeline consumes this interface so it can run against a live
// machine, a pre-recorded slice, or a transformed stream.
//
// A stream ends one of two ways, and Next's ok is false for both: the
// program halted (or the budget ran out), or execution failed — a runaway
// PC. Err tells them apart, and cpu.Pipeline.Run reports it, so a caller
// that runs a pipeline to completion never has to ask the source itself.
type Source interface {
	// Next returns the next record; ok is false at end of stream.
	Next() (r Record, ok bool)
	// Err returns the error that ended the stream, nil for a clean end
	// (and before the end).
	Err() error
}

// MachineSource adapts a Machine to a Source with an instruction budget.
type MachineSource struct {
	m   *Machine
	max uint64
	n   uint64
	err error
}

// NewMachineSource wraps m; max <= 0 means no instruction limit.
func NewMachineSource(m *Machine, max uint64) *MachineSource {
	return &MachineSource{m: m, max: max}
}

// Next implements Source. Errors (e.g. a runaway PC) end the stream; Err
// then holds the cause.
func (s *MachineSource) Next() (Record, bool) {
	if s.err != nil || s.m.Halted() || (s.max > 0 && s.n >= s.max) {
		return Record{}, false
	}
	r, ok, err := s.m.Step()
	if err != nil {
		s.err = err
		return Record{}, false
	}
	if !ok {
		return Record{}, false
	}
	s.n++
	return r, true
}

// Err implements Source.
func (s *MachineSource) Err() error { return s.err }

// SliceSource adapts a pre-recorded trace to a Source.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Err implements Source: a recorded slice always ends cleanly.
func (s *SliceSource) Err() error { return nil }
