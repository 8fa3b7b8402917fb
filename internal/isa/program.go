package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Proc describes a procedure: a named, contiguous range of instructions.
// Procedures are the unit of the interprocedural path analysis in
// internal/pathprof.
type Proc struct {
	Name  string
	Start uint64 // PC of the first instruction
	End   uint64 // PC one past the last instruction
}

// Contains reports whether pc lies inside the procedure.
func (p Proc) Contains(pc uint64) bool { return pc >= p.Start && pc < p.End }

// Program is an assembled program image: instructions at consecutive PCs
// starting at 0, label and procedure metadata, and initial data memory.
type Program struct {
	Insts  []Inst
	Labels map[string]uint64 // label name -> PC
	Procs  []Proc            // sorted by Start
	Data   map[uint64]uint64 // initial contents of data memory (word addressed)
	Entry  uint64            // PC of the first instruction to execute
}

// At returns the instruction at pc. ok is false when pc is outside the
// image or not instruction-aligned.
func (p *Program) At(pc uint64) (Inst, bool) {
	if pc%InstBytes != 0 {
		return Inst{}, false
	}
	idx := pc / InstBytes
	if idx >= uint64(len(p.Insts)) {
		return Inst{}, false
	}
	return p.Insts[idx], true
}

// Len returns the number of instructions in the image.
func (p *Program) Len() int { return len(p.Insts) }

// MaxPC returns the PC one past the last instruction.
func (p *Program) MaxPC() uint64 { return uint64(len(p.Insts)) * InstBytes }

// Label returns the PC of a label and whether it exists.
func (p *Program) Label(name string) (uint64, bool) {
	pc, ok := p.Labels[name]
	return pc, ok
}

// ProcAt returns the procedure containing pc, or nil if none does.
func (p *Program) ProcAt(pc uint64) *Proc {
	i := sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].End > pc })
	if i < len(p.Procs) && p.Procs[i].Contains(pc) {
		return &p.Procs[i]
	}
	return nil
}

// ProcByName returns the named procedure, or nil.
func (p *Program) ProcByName(name string) *Proc {
	for i := range p.Procs {
		if p.Procs[i].Name == name {
			return &p.Procs[i]
		}
	}
	return nil
}

// SymbolFor returns a human-readable "proc+offset" string for pc, falling
// back to a hex PC when no procedure contains it.
func (p *Program) SymbolFor(pc uint64) string {
	if pr := p.ProcAt(pc); pr != nil {
		return fmt.Sprintf("%s+0x%x", pr.Name, pc-pr.Start)
	}
	return fmt.Sprintf("0x%x", pc)
}

// Disassemble renders the whole image with PCs and label annotations.
func (p *Program) Disassemble() string {
	byPC := make(map[uint64][]string)
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	for pc := range byPC {
		sort.Strings(byPC[pc])
	}
	var b strings.Builder
	for i, in := range p.Insts {
		pc := uint64(i) * InstBytes
		for _, l := range byPC[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  0x%04x  %s\n", pc, in)
	}
	return b.String()
}

// Validate checks structural invariants of the image: direct control
// transfers land on in-image, aligned PCs; registers are in range; and
// procedure ranges are well-formed and non-overlapping. It returns the
// first problem found, or nil.
func (p *Program) Validate() error {
	for i, in := range p.Insts {
		pc := uint64(i) * InstBytes
		if !in.Ra.valid() || !in.Rb.valid() || !in.Rc.valid() {
			return fmt.Errorf("isa: pc 0x%x: register out of range in %v", pc, in)
		}
		if in.Op.IsControl() && !in.Op.IsIndirect() {
			if in.Target%InstBytes != 0 {
				return fmt.Errorf("isa: pc 0x%x: misaligned target 0x%x", pc, in.Target)
			}
			if in.Target >= p.MaxPC() {
				return fmt.Errorf("isa: pc 0x%x: target 0x%x outside image", pc, in.Target)
			}
		}
	}
	if p.Entry >= p.MaxPC() && p.Len() > 0 {
		return fmt.Errorf("isa: entry 0x%x outside image", p.Entry)
	}
	var prev *Proc
	for i := range p.Procs {
		pr := &p.Procs[i]
		if pr.End <= pr.Start {
			return fmt.Errorf("isa: procedure %s has empty range", pr.Name)
		}
		if pr.End > p.MaxPC() {
			return fmt.Errorf("isa: procedure %s extends past image end", pr.Name)
		}
		if prev != nil && pr.Start < prev.End {
			return fmt.Errorf("isa: procedures %s and %s overlap", prev.Name, pr.Name)
		}
		prev = pr
	}
	return nil
}
