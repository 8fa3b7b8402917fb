package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"testing"

	"profileme/internal/core"
	"profileme/internal/isa"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// forRecordMatrix calls f for the sampling matrix the record tests share:
// every suite kernel at scale, under single and paired sampling, counting
// predicted-path instructions and fetch opportunities, at a mean interval
// of 41 with no faults.
func forRecordMatrix(scale int, f func(name string, prog *isa.Program, ucfg core.Config)) {
	for _, b := range workload.Suite() {
		prog := b.Build(scale)
		for _, paired := range []bool{false, true} {
			for _, mode := range []core.CountMode{core.CountInstructions, core.CountFetchOpportunities} {
				ucfg := core.DefaultConfig()
				ucfg.MeanInterval, ucfg.Paired, ucfg.CountMode, ucfg.BufferDepth = 41, paired, mode, 4
				f(fmt.Sprintf("%s paired=%v %s", b.Name, paired, mode), prog, ucfg)
			}
		}
	}
}

// hashSample writes every field of s, and of both its records, one by one
// to h.
func hashSample(h hash.Hash, s *core.Sample) {
	b := []byte{boolByte(s.Paired)}
	b = binary.LittleEndian.AppendUint64(b, s.FetchDistance)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.FetchLatency))
	for _, r := range []*core.Record{&s.First, &s.Second} {
		for _, v := range []uint64{r.Context, r.PC, r.Addr, uint64(r.Events), r.History, uint64(r.HistoryBits), uint64(r.LoadComplete), r.FetchSeq} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		for _, c := range r.StageCycle {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
		b = append(b, boolByte(r.AddrValid), byte(r.Trap))
	}
	h.Write(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TestCycleLimitedSamplesPinned pins what a run stopped by its cycle
// budget delivers: the samples completed in flight and the partial records
// finish() flushes. The goldens cover drained runs only; this digest was
// recorded when the unit still built each record from per-event writes.
func TestCycleLimitedSamplesPinned(t *testing.T) {
	const (
		wantDigest    = "65192c7cf1108f01e4a1e52b104e2f2cf81bbf3c6074cf3d42c576ae35a996b4"
		wantSamples   = 37_308
		wantNeverDone = 56
	)
	h := sha256.New()
	var samples, neverDone int
	forRecordMatrix(60_000, func(name string, prog *isa.Program, ucfg core.Config) {
		for _, stop := range []int64{3_000, 8_000, 20_000} {
			p, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			p.AttachProfileMe(core.MustNewUnit(ucfg), func(ss []core.Sample) {
				for i := range ss {
					hashSample(h, &ss[i])
					samples++
					for _, r := range []*core.Record{&ss[i].First, &ss[i].Second} {
						if r.Trap == core.TrapNeverDone {
							neverDone++
						}
					}
				}
			})
			if _, err := p.Run(stop); !errors.Is(err, ErrCycleLimit) {
				t.Fatalf("%s, stop %d: %v, want ErrCycleLimit", name, stop, err)
			}
		}
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest || samples != wantSamples || neverDone != wantNeverDone {
		t.Fatalf("cycle-limited runs delivered %d samples, %d never-done records, digest %s; want %d, %d, %s",
			samples, neverDone, got, wantSamples, wantNeverDone, wantDigest)
	}
}

// TestSampleIsLeaveRecord holds every delivered record of a drained run to
// the leave of the same dynamic instruction, matched by PC and fetch
// cycle. They differ only in the unit's own FetchSeq and in the
// LoadComplete of a load that retired before its value arrived: unset at
// its leave, set in its sample, after the retirement (§4.1.4).
func TestSampleIsLeaveRecord(t *testing.T) {
	type key struct {
		pc    uint64
		fetch int64
	}
	var checked, deferred int
	forRecordMatrix(20_000, func(name string, prog *isa.Program, ucfg core.Config) {
		p, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		leaves := map[key]core.Record{}
		p.Observe(func(l Leave) { leaves[key{l.PC, l.StageCycle[core.StageFetch]}] = l.Record })
		var samples []core.Sample
		p.AttachProfileMe(core.MustNewUnit(ucfg), func(ss []core.Sample) { samples = append(samples, ss...) })
		if _, err := p.Run(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range samples {
			recs := []core.Record{samples[i].First}
			if samples[i].Paired {
				recs = append(recs, samples[i].Second)
			}
			for _, got := range recs {
				if got.Events.Has(core.EvNoInstruction) {
					continue // an empty fetch slot never enters the pipeline
				}
				want, ok := leaves[key{got.PC, got.StageCycle[core.StageFetch]}]
				if !ok {
					t.Fatalf("%s: no leave for the sample of pc %#x fetched at cycle %d", name, got.PC, got.StageCycle[core.StageFetch])
				}
				want.FetchSeq = got.FetchSeq
				if want.Retired() && want.LoadComplete < 0 && got.LoadComplete > want.StageCycle[core.StageRetire] {
					want.LoadComplete = got.LoadComplete
					deferred++
				}
				if got != want {
					t.Fatalf("%s: sample record\n%+v\nis not its leave record\n%+v", name, got, want)
				}
				checked++
			}
		}
	})
	if checked == 0 || deferred == 0 {
		t.Fatalf("%d records checked, %d deferred loads among them", checked, deferred)
	}
	t.Logf("%d records checked, %d of them loads that retired before their value", checked, deferred)
}
