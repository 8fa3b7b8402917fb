package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// TestWatchdogFiresTyped shrinks the watchdog below the pipeline's fill
// latency so it trips immediately: Run must return ErrLivelock (typed, via
// errors.Is) with the result finalized, never hang.
func TestWatchdogFiresTyped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 2 // below fetch->retire latency: guaranteed trip
	prog := workload.Compress(5000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(0)
	if err == nil {
		t.Fatal("watchdog did not fire")
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("error not typed as ErrLivelock: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("result not finalized on watchdog exit")
	}
}

// TestWatchdogQuietOnHealthyRun checks the default bound never trips on a
// normal run, and that a run completing normally reports no error.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.WatchdogCycles != DefaultWatchdogCycles {
		t.Fatalf("default config watchdog = %d", cfg.WatchdogCycles)
	}
	prog := workload.Compress(8000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(0); err != nil {
		t.Fatalf("healthy run errored: %v", err)
	}
}

func TestValidateRejectsDegenerateShapes(t *testing.T) {
	cases := map[string]func(*Config){
		"zero fetch width":    func(c *Config) { c.FetchWidth = 0 },
		"zero map width":      func(c *Config) { c.MapWidth = 0 },
		"zero retire width":   func(c *Config) { c.RetireWidth = 0 },
		"zero int units":      func(c *Config) { c.IntUnits = 0 },
		"zero mem ports":      func(c *Config) { c.MemPorts = 0 },
		"zero fp units":       func(c *Config) { c.FPUnits = 0 },
		"tiny ROB":            func(c *Config) { c.ROBSize = 1 },
		"no issue queue":      func(c *Config) { c.IQInt = 0 },
		"negative penalty":    func(c *Config) { c.MispredictPenalty = -1 },
		"negative bubble":     func(c *Config) { c.TakenBranchBubble = -1 },
		"negative intr cost":  func(c *Config) { c.InterruptCost = -1 },
		"negative watchdog":   func(c *Config) { c.WatchdogCycles = -1 },
		"zero sustained":      func(c *Config) { c.SustainedIssueWidth = 0 },
		"zero latency":        func(c *Config) { c.Lat.IntALU = 0 },
		"starved phys regs":   func(c *Config) { c.PhysRegs = 10 },
		"fetch buf too small": func(c *Config) { c.FetchBuf = 1 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestWatchdogTripsOnInterruptStorm runs a profiling-interrupt storm: in
// opportunity mode at a mean interval of 8 with an interrupt per sample,
// the empty slots of each delivery's fetch freeze are selected in turn, so
// the buffer refills before the freeze ends and the ROB stays empty. No
// instruction retires, so the watchdog must end the run with ErrLivelock;
// the context deadline only guards against a hang.
func TestWatchdogTripsOnInterruptStorm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 100_000
	prog := workload.Compress(2000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval, ucfg.CountMode, ucfg.BufferDepth = 8, core.CountFetchOpportunities, 1
	pipe.AttachProfileMe(core.MustNewUnit(ucfg), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := pipe.RunContext(ctx, 0)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("storm run ended with %v after %d cycles, %d retired; want ErrLivelock", err, res.Cycles, res.Retired)
	}
	if res.Cycles > 2*int64(cfg.WatchdogCycles) {
		t.Fatalf("watchdog of %d cycles fired at cycle %d", cfg.WatchdogCycles, res.Cycles)
	}
}
