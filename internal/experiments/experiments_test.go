package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/faultinject"
	"profileme/internal/profile"
	"profileme/internal/runner"
	"profileme/internal/workload"
)

// TestExperiments runs every experiment of All at its reduced
// configuration — the runs `figures -quick` prints: the shape check must
// hold, the rendering must be non-empty, and the CSV must be a header plus
// at least one row, every row as wide as the header.
func TestExperiments(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			res, err := quick(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			out := res.Render()
			if err := res.Check(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if strings.TrimSpace(out) == "" {
				t.Error("empty rendering")
			}
			rows, err := csv.NewReader(strings.NewReader(res.CSV())).ReadAll()
			if err != nil || len(rows) < 2 {
				t.Errorf("CSV: %d records (%v), want a header and at least one row of its width", len(rows), err)
			}
			t.Logf("\n%s", out)
		})
	}
}

// quickRuns holds each entry's -quick run, made once per test binary.
var quickRuns sync.Map // entry name -> func() (Result, error)

// quick returns the -quick result of the entry called name, running it
// on first use, so that TestAblations reads rows of the runs
// TestExperiments checks.
func quick(name string) (Result, error) {
	run, _ := quickRuns.LoadOrStore(name, sync.OnceValues(func() (Result, error) {
		for _, e := range All {
			if e.Name == name {
				return e.Run(true)
			}
		}
		return nil, fmt.Errorf("no experiment %q", name)
	}))
	return run.(func() (Result, error))()
}

// TestAblations holds each DESIGN.md §5 ablation, and the hottest-edge
// estimate of §5.2, to its claim one subtest per row, logging the row
// EXPERIMENTS.md quotes; the rows are the ablations and edges entries'.
func TestAblations(t *testing.T) {
	res, err := quick("ablations")
	if err != nil {
		t.Fatal(err)
	}
	r := res.(ablationsResult)
	for a, ab := range ablationTable {
		t.Run(ab.name, func(t *testing.T) {
			t.Log(r.row(a))
			if err := r.checkRow(a); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("edge-frequency", func(t *testing.T) {
		res, err := quick("edges")
		if err != nil {
			t.Fatal(err)
		}
		e := res.(*edgesResult)
		t.Logf("%s, 3-sigma [%.0f, %.0f]", e.Hot, e.Lo, e.Hi)
		if err := e.checkHot(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFigure3TimingModeAgrees(t *testing.T) {
	// The fast functional sampler (the documented substitution for the
	// paper's cycle-accurate runs) and the full timing pipeline with the
	// real ProfileMe unit must show the same convergence behaviour.
	base := figure3Config{
		Benchmarks: []string{"compress"},
		Scale:      250_000,
		Intervals:  []float64{100},
		Seed:       7,
	}
	fast, err := figure3(base)
	if err != nil {
		t.Fatal(err)
	}
	timing := base
	timing.UseTiming = true
	slow, err := figure3(timing)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*figure3Result{"fast": fast, "timing": slow} {
		pts := res.Series[0].Retire
		var strong []figure3Point
		for _, p := range pts {
			if p.Samples >= 16 {
				strong = append(strong, p)
			}
		}
		if len(strong) < 8 {
			t.Fatalf("%s: only %d strong points", name, len(strong))
		}
		frac := envelopeFraction(strong)
		if frac < 0.45 || frac > 0.95 {
			t.Fatalf("%s: envelope fraction %.2f", name, frac)
		}
		med := medianAbsError(strong)
		if med > 0.2 {
			t.Fatalf("%s: median error %.3f", name, med)
		}
	}
}

// TestRealizeSOnLossyShard holds DB.Realize to one loss correction. A
// shard whose swallowed interrupts lost more than a tenth of the captured
// samples is rescaled; the join's per-PC estimates at the scale Realize
// returns must then sum to the fetched count within 1%, and the exact
// counts to it exactly. Dividing by the delivered count instead overshoots
// by captured/delivered, here about 23%.
func TestRealizeSOnLossyShard(t *testing.T) {
	plan, err := faultinject.NewPlan(1, faultinject.Rates{DropInterrupt: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ucfg := core.DefaultConfig()
	ucfg.MeanInterval = 16
	ucfg.BufferDepth = 4
	sh, err := runner.RunShard(context.Background(), workload.Compress(100_000), cpu.DefaultConfig(), ucfg, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lost, captured := sh.Stats.Lost(), sh.Stats.Captured(); lost*10 < captured {
		t.Fatalf("lost %d of %d captured samples, want at least 10%%", lost, captured)
	}
	fetched := sh.Result.FetchedOnPath
	var est float64
	var truth uint64
	for _, r := range profile.Join(sh.DB, runner.Exact(sh.Pipeline), samples, sh.DB.Realize(fetched)) {
		est += r.Estimate
		truth += r.Truth
	}
	if truth != fetched {
		t.Errorf("exact counts sum to %d, fetched %d", truth, fetched)
	}
	if math.Abs(est/float64(fetched)-1) > 0.01 {
		t.Errorf("per-PC estimates sum to %.0f, fetched %d (%+.1f%%)", est, fetched, 100*(est/float64(fetched)-1))
	}
}
