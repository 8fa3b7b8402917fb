package cpu

// IIDSampler models the related-work baseline the paper contrasts itself
// against (§8): Westcott & White's instruction-sampling patent, which
// profiles an instruction only "when its execution is assigned a
// particular internal instruction number (IID)" and logs it at
// retirement, transparently discarding unretired instructions. In this
// pipeline the IID is the reorder-buffer slot an instruction is mapped
// into.
//
// Two deficiencies follow, which the comparison experiment quantifies:
// slot assignment is strongly correlated with program structure (loop
// bodies land on the same slots lap after lap), so per-PC estimates are
// biased; and aborted instructions are invisible.
type IIDSampler struct {
	// Slot is the profiled reorder-buffer slot.
	Slot int
	// Period logs every Period-th instruction assigned to Slot.
	Period int

	count    int
	pending  map[uint64]bool // sampled in-flight uops by sequence number
	retired  map[uint64]uint64
	aborted  uint64
	selected uint64
}

// NewIIDSampler returns a sampler for the given ROB slot and period.
func NewIIDSampler(slot, period int) *IIDSampler {
	if period < 1 {
		period = 1
	}
	return &IIDSampler{
		Slot: slot, Period: period,
		pending: make(map[uint64]bool), retired: make(map[uint64]uint64),
	}
}

// onMap observes an instruction entering ROB slot idx.
func (s *IIDSampler) onMap(idx int, seq uint64) {
	if idx != s.Slot {
		return
	}
	s.count++
	if s.count < s.Period {
		return
	}
	s.count = 0
	s.selected++
	s.pending[seq] = true
}

// onRetire logs the sample if this uop was selected.
func (s *IIDSampler) onRetire(seq, pc uint64) {
	if s.pending[seq] {
		delete(s.pending, seq)
		s.retired[pc]++
	}
}

// onSquash transparently discards a selected uop — the paper's point.
func (s *IIDSampler) onSquash(seq uint64) {
	if s.pending[seq] {
		delete(s.pending, seq)
		s.aborted++
	}
}

// Retired returns the per-PC retired-sample counts (the only thing the
// W&W hardware delivers).
func (s *IIDSampler) Retired() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(s.retired))
	for pc, n := range s.retired {
		out[pc] = n
	}
	return out
}

// AttachIIDSampler plugs the W&W-style sampler into the pipeline.
func (p *Pipeline) AttachIIDSampler(s *IIDSampler) { p.iid = s }
