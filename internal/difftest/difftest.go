// Package difftest is the correctness anchor for simulator performance
// work: it drives identical workloads and seeds through the out-of-order
// timing pipeline (internal/cpu) and the functional ISA simulator
// (internal/sim) and reduces everything observable about the run to a
// small set of content digests —
//
//   - the retired instruction stream (sequence numbers and PCs, in
//     retirement order), which must be exactly the functional execution
//     stream: the pipeline may fetch down wrong paths, replay, and squash,
//     but architecturally it must retire precisely the instructions the
//     ISA executes, in order, once each;
//   - the final architectural state (register file plus canonical data
//     memory) of the functional machine;
//   - the serialized profile.DB produced by a seeded ProfileMe unit
//     attached to the pipeline, which pins the cycle-level timing, the
//     sampling decisions, and the sample delivery path bit-for-bit;
//   - the pipeline's cycle count and retired-instruction total.
//
// The golden files under testdata/ were generated from the tree BEFORE the
// hot-path optimization pass (PR 5) and are regenerated only deliberately
// (go test ./internal/difftest -run TestGoldenDigests -update), so any
// optimization that changes observable behavior — timing, sampling,
// retirement, architectural state — fails the suite instead of silently
// shifting results.
package difftest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// Spec names one differential run: a workload at a scale, and the seed and
// mean interval of the ProfileMe unit sampling it.
type Spec struct {
	Workload string  `json:"workload"`
	Scale    int     `json:"scale"`
	Seed     uint64  `json:"seed"`
	Interval float64 `json:"interval"`
}

// Key is the golden-map key for the spec.
func (s Spec) Key() string {
	return fmt.Sprintf("%s/scale=%d/seed=%d/s=%g", s.Workload, s.Scale, s.Seed, s.Interval)
}

// Digest is everything a differential run pins down.
type Digest struct {
	// Retired is the number of instructions the pipeline retired; it must
	// equal the number the functional machine executed.
	Retired uint64 `json:"retired"`
	// Cycles is the pipeline's total cycle count — any timing change moves
	// this.
	Cycles int64 `json:"cycles"`
	// RetiredStream is the SHA-256 of the pipeline's retired (seq, pc)
	// stream in retirement order.
	RetiredStream string `json:"retired_stream"`
	// FinalState is the SHA-256 of the functional machine's canonical
	// architectural state (registers + nonzero memory words, sorted).
	FinalState string `json:"final_state"`
	// ProfileDB is the SHA-256 of the profile database serialized by
	// profile.DB.Save after the sampled pipeline run.
	ProfileDB string `json:"profile_db"`
}

// Run executes spec through both simulators and returns the digest. It
// fails loudly — rather than producing a digest — when the pipeline's
// retirement stream violates architectural equivalence while the run is
// still in flight: a skipped, duplicated, or out-of-order retirement.
func Run(spec Spec) (Digest, error) {
	bench, ok := workload.ByName(spec.Workload)
	if !ok {
		return Digest{}, fmt.Errorf("difftest: unknown workload %q", spec.Workload)
	}
	prog := bench.Build(spec.Scale)

	// Functional reference run: execution stream digest + final state.
	ref := sim.New(prog)
	refHash := sha256.New()
	refCount := uint64(0)
	if _, err := ref.Run(0, func(r sim.Record) {
		hashSeqPC(refHash, r.Seq, r.PC)
		refCount++
	}); err != nil {
		return Digest{}, fmt.Errorf("difftest: functional run: %w", err)
	}
	finalState := stateDigest(ref)

	// Timing run with a seeded ProfileMe unit and a leave observer. It is
	// wired here rather than through runner.RunShard: the observer goes on
	// before the run, and the final-state check below reads the
	// machine that fed the pipeline. The database takes RunShard's
	// (S, W, C): unpaired sampling, so W = 0.
	ccfg := cpu.DefaultConfig()
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = spec.Interval
	ucfg.BufferDepth = 4
	ucfg.Seed = spec.Seed
	unit, err := core.NewUnit(ucfg)
	if err != nil {
		return Digest{}, fmt.Errorf("difftest: unit: %w", err)
	}
	db := profile.NewDB(spec.Interval, 0, ccfg.SustainedIssueWidth)

	machine := sim.New(prog)
	pipe, err := cpu.New(prog, sim.NewMachineSource(machine, 0), ccfg)
	if err != nil {
		return Digest{}, fmt.Errorf("difftest: pipeline: %w", err)
	}
	pipe.AttachProfileMe(unit, db.Handler())

	retHash := sha256.New()
	var retired uint64
	var streamErr error
	pipe.Observe(func(l cpu.Leave) {
		if !l.Retired() {
			return
		}
		if streamErr == nil && l.RecSeq != retired {
			streamErr = fmt.Errorf("difftest: retirement out of order: got seq %d, want %d (pc %#x)",
				l.RecSeq, retired, l.PC)
		}
		hashSeqPC(retHash, l.RecSeq, l.PC)
		retired++
	})

	res, err := pipe.Run(0)
	if err != nil {
		return Digest{}, fmt.Errorf("difftest: pipeline run: %w", err)
	}
	if streamErr != nil {
		return Digest{}, streamErr
	}
	if retired != res.Retired {
		return Digest{}, fmt.Errorf("difftest: observer saw %d retirements, result says %d",
			retired, res.Retired)
	}
	if retired != refCount {
		return Digest{}, fmt.Errorf("difftest: pipeline retired %d instructions, functional machine executed %d",
			retired, refCount)
	}
	pipeStream := hex.EncodeToString(retHash.Sum(nil))
	refStream := hex.EncodeToString(refHash.Sum(nil))
	if pipeStream != refStream {
		return Digest{}, fmt.Errorf("difftest: retired stream diverged from functional execution (pipeline %s, functional %s)",
			pipeStream[:16], refStream[:16])
	}

	// The pipeline replays a second functional machine; its final state
	// must match the reference machine's (locks the sim.Machine
	// representation against the reference run's).
	if got := stateDigest(machine); got != finalState {
		return Digest{}, fmt.Errorf("difftest: pipeline-fed machine final state %s != reference %s",
			got[:16], finalState[:16])
	}

	db.RecordLoss(unit.Stats().Lost())
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return Digest{}, fmt.Errorf("difftest: save profile: %w", err)
	}
	dbSum := sha256.Sum256(buf.Bytes())

	return Digest{
		Retired:       retired,
		Cycles:        res.Cycles,
		RetiredStream: pipeStream,
		FinalState:    finalState,
		ProfileDB:     hex.EncodeToString(dbSum[:]),
	}, nil
}

// Compare reports the first field where got differs from want, or nil.
func Compare(spec Spec, got, want Digest) error {
	switch {
	case got.Retired != want.Retired:
		return fmt.Errorf("difftest: %s: retired %d, golden %d", spec.Key(), got.Retired, want.Retired)
	case got.Cycles != want.Cycles:
		return fmt.Errorf("difftest: %s: cycles %d, golden %d", spec.Key(), got.Cycles, want.Cycles)
	case got.RetiredStream != want.RetiredStream:
		return fmt.Errorf("difftest: %s: retired-stream digest changed (%s -> %s)",
			spec.Key(), want.RetiredStream[:16], got.RetiredStream[:16])
	case got.FinalState != want.FinalState:
		return fmt.Errorf("difftest: %s: final-state digest changed (%s -> %s)",
			spec.Key(), want.FinalState[:16], got.FinalState[:16])
	case got.ProfileDB != want.ProfileDB:
		return fmt.Errorf("difftest: %s: profile.DB digest changed (%s -> %s)",
			spec.Key(), want.ProfileDB[:16], got.ProfileDB[:16])
	}
	return nil
}

// hashSeqPC folds one (seq, pc) pair into h.
func hashSeqPC(h hash.Hash, seq, pc uint64) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], seq)
	binary.LittleEndian.PutUint64(b[8:16], pc)
	h.Write(b[:])
}

// stateDigest hashes a machine's canonical architectural state.
func stateDigest(m *sim.Machine) string {
	regs, mem := m.Snapshot()
	h := sha256.New()
	var b [16]byte
	for i, v := range regs {
		binary.LittleEndian.PutUint64(b[0:8], uint64(i))
		binary.LittleEndian.PutUint64(b[8:16], v)
		h.Write(b[:])
	}
	for _, w := range mem {
		binary.LittleEndian.PutUint64(b[0:8], w.Addr)
		binary.LittleEndian.PutUint64(b[8:16], w.Val)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
