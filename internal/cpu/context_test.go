package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"profileme/internal/sim"
	"profileme/internal/workload"
)

// TestRunContextCanceledBeforeStart checks that an already-canceled
// context stops the run at the first poll with a typed, finalized result.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	prog := workload.Compress(20000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pipe.RunContext(ctx, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error not typed as ErrCanceled: %v", err)
	}
	// The first poll happens at cycle 0: nothing should have retired.
	if res.Retired != 0 {
		t.Fatalf("retired %d instructions under a pre-canceled context", res.Retired)
	}
}

// TestRunContextDeadlinePartialResult cancels mid-run and checks the
// partial result is finalized (cycles advanced, some retirement) and the
// error is typed.
func TestRunContextDeadlinePartialResult(t *testing.T) {
	prog := workload.Compress(400000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := pipe.RunContext(ctx, 0)
	if err == nil {
		// The whole program finished inside the deadline; nothing to
		// assert about cancellation (machine too fast for this scale).
		t.Skip("run completed before the deadline fired")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error not typed as ErrCanceled: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("result not finalized on cancellation")
	}
}

// TestRunContextCancellationLatency bounds how long a run keeps simulating
// after its context is canceled. The batched cycle driver polls the
// context every ctxCheckCycles cycles, so a cancellation arriving mid-run
// must stop the pipeline within two batches — ≤2048 cycles — no matter
// where in a batch it lands. The cancel fires synchronously from the
// leave observer, so the trigger cycle is exact.
func TestRunContextCancellationLatency(t *testing.T) {
	prog := workload.Compress(400000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelCycle := int64(-1)
	var retired uint64
	pipe.Observe(func(l Leave) {
		if !l.Retired() {
			return
		}
		retired++
		if retired == 10_000 && cancelCycle < 0 {
			cancelCycle = pipe.Cycle()
			cancel()
		}
	})
	res, err := pipe.RunContext(ctx, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error not typed as ErrCanceled: %v", err)
	}
	if cancelCycle < 0 {
		t.Fatal("cancel never triggered")
	}
	if latency := res.Cycles - cancelCycle; latency < 0 || latency > 2048 {
		t.Fatalf("cancellation latency %d cycles (canceled at %d, stopped at %d), want ≤2048",
			latency, cancelCycle, res.Cycles)
	}
}

// TestRunContextBackgroundMatchesRun checks RunContext with a background
// context is exactly Run: same result on the same program and seeds.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	mk := func() *Pipeline {
		prog := workload.Compress(20000)
		pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return pipe
	}
	a, err := mk().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Run and RunContext diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunContextWatchdogStillFires checks the livelock watchdog composes
// with context cancellation: a watchdog trip under an un-canceled context
// still returns ErrLivelock, not ErrCanceled.
func TestRunContextWatchdogStillFires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 2
	prog := workload.Compress(5000)
	pipe, err := New(prog, sim.NewMachineSource(sim.New(prog), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := pipe.RunContext(ctx, 0); !errors.Is(err, ErrLivelock) {
		t.Fatalf("watchdog error not ErrLivelock under a live context: %v", err)
	}
}
