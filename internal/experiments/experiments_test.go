package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
)

// TestExperiments runs every experiment of All at its reduced
// configuration — the runs `figures -quick` prints: the shape check must
// hold, the rendering must be non-empty, and the CSV must be a header plus
// at least one row, every row as wide as the header.
func TestExperiments(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(true)
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
