package cpu

import (
	"fmt"
	"testing"

	"profileme/internal/isa"
	"profileme/internal/mem"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// randomConfig draws a valid configuration: widths 1–8, a ROB of 2–128,
// queues of 1–32, any issue order, wrong-path and replay setting, memory
// latency up to 1,000 cycles and divides up to 60.
func randomConfig(r *stats.RNG) Config {
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.MapWidth, cfg.RetireWidth = r.IntRange(1, 8), r.IntRange(1, 8), r.IntRange(1, 8)
	cfg.SustainedIssueWidth = r.IntRange(1, 8)
	cfg.IntUnits, cfg.MemPorts, cfg.FPUnits = r.IntRange(1, 8), r.IntRange(1, 8), r.IntRange(1, 8)
	cfg.ROBSize = r.IntRange(2, 128)
	cfg.IQInt, cfg.IQFP = r.IntRange(1, 32), r.IntRange(1, 32)
	cfg.FetchBuf = r.IntRange(cfg.FetchWidth, 32)
	cfg.PhysRegs = isa.NumRegs + cfg.MapWidth + r.IntRange(0, 96)
	cfg.InOrder, cfg.NoWrongPath, cfg.ReplayTraps = r.Bool(0.3), r.Bool(0.2), r.Bool(0.5)
	cfg.MispredictPenalty, cfg.TakenBranchBubble = r.IntRange(0, 20), r.IntRange(0, 3)
	cfg.InterruptCost = 0
	cfg.Lat.IntMul, cfg.Lat.FAdd, cfg.Lat.FDiv = r.IntRange(1, 12), r.IntRange(1, 8), r.IntRange(1, 60)
	cfg.Mem.TLBPenalty = r.IntRange(0, 60)
	cfg.Mem.L2Latency = r.IntRange(1, 40)
	cfg.Mem.MemLatency = r.IntRange(1, 1000)
	return cfg
}

// TestObserveContract runs generated configurations, each on a suite
// kernel with a hierarchy built from its cfg.Mem, and holds the leave
// stream to Observe's contract: the retired leaves are the functional
// machine's stream in order, every fetched instruction leaves exactly
// once, and each slot lies in [-1, ROBSize). An event scheduled beyond
// the ring's span panics and fails the test with its configuration.
func TestObserveContract(t *testing.T) {
	const configs, scale = 200, 4000
	suite := workload.Suite()
	progs := make([]*isa.Program, len(suite))
	want := make([][]sim.Record, len(suite))
	for i, b := range suite {
		progs[i] = b.Build(scale)
		if _, err := sim.New(progs[i]).Run(0, func(rec sim.Record) { want[i] = append(want[i], rec) }); err != nil {
			t.Fatal(err)
		}
	}
	r := stats.NewRNG(7)
	for n := 0; n < configs; n++ {
		cfg, k := randomConfig(r), n%len(suite)
		name := fmt.Sprintf("config %d (%s)", n, suite[k].Name)
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("%s: %v\n%+v", name, v, cfg)
				}
			}()
			prog := progs[k]
			p, err := NewWithHierarchy(prog, sim.NewMachineSource(sim.New(prog), 0), cfg, mem.NewHierarchy(cfg.Mem))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var leaves, retired uint64
			p.Observe(func(l Leave) {
				leaves++
				if l.Slot < -1 || l.Slot >= cfg.ROBSize {
					t.Fatalf("%s: slot %d outside [-1, %d)", name, l.Slot, cfg.ROBSize)
				}
				if !l.Retired {
					return
				}
				if w := want[k]; retired >= uint64(len(w)) || l.RecSeq != w[retired].Seq || l.PC != w[retired].PC {
					t.Fatalf("%s: retirement %d is (seq %d, pc %#x), not the functional stream's", name, retired, l.RecSeq, l.PC)
				}
				retired++
			})
			res, err := p.Run(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if retired != uint64(len(want[k])) || retired != res.Retired {
				t.Fatalf("%s: %d retired leaves, result %d, functional %d", name, retired, res.Retired, len(want[k]))
			}
			if fetched := res.FetchedOnPath + res.FetchedOffPath; leaves != fetched {
				t.Fatalf("%s: %d leaves for %d fetched instructions", name, leaves, fetched)
			}
		}()
	}
}
