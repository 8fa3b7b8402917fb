package experiments

import (
	"fmt"
	"strings"

	"profileme/internal/counters"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/sim"
	"profileme/internal/stats"
	"profileme/internal/workload"
)

// figure2Config parameterizes the event-counter attribution experiment.
type figure2Config struct {
	Nops   int    // nops between the load and the loop branch
	Iters  int    // loop iterations
	Period uint64 // counter overflow period (D-cache references)
	Skid   int64  // interrupt recognition latency in cycles
	// OoOJitter is the recognition jitter of the out-of-order machine's
	// asynchronous interrupt delivery (see counters.Config.SkidJitter);
	// the in-order machine recognizes counter interrupts
	// pipeline-synchronously, with no jitter.
	OoOJitter int64
}

// defaultFigure2Config mirrors the paper's setup: one load followed by
// hundreds of nops, sampling D-cache-reference events.
func defaultFigure2Config(quick bool) figure2Config {
	return figure2Config{Nops: pick(quick, 300, 120), Iters: pick(quick, 4000, 1500), Period: 61, Skid: 6, OoOJitter: 8}
}

// figure2Result holds the PC histograms of delivered interrupts, keyed by
// the instruction offset from the load within the loop body.
type figure2Result struct {
	LoopLen    int64 // loop length in instructions
	InOrder    *stats.Histogram
	OutOfOrder *stats.Histogram
}

// figure2 reproduces Figure 2: run the load+nops loop on an in-order and
// an out-of-order configuration with overflow-interrupt event counters
// monitoring D-cache references, and histogram the PC delivered to the
// interrupt handler relative to the load.
func figure2(cfg figure2Config) (*figure2Result, error) {
	prog := workload.Figure2Program(cfg.Nops, cfg.Iters)
	loadPC, ok := prog.Label("theload")
	if !ok {
		return nil, fmt.Errorf("fig2: program has no load label")
	}
	loopLen := int64(cfg.Nops + 3) // ld + nops + sub + bne

	run := func(ccfg cpu.Config, jitter int64) (*stats.Histogram, error) {
		h := stats.NewHistogram()
		unit := counters.New(
			counters.Config{
				Monitor: counters.EventDCacheRef, Period: cfg.Period,
				Skid: cfg.Skid, SkidJitter: jitter, Seed: 17,
			},
			func(pc uint64) {
				off := (int64(pc) - int64(loadPC)) / isa.InstBytes
				off = ((off % loopLen) + loopLen) % loopLen // fold into the loop body
				h.Add(off)
			})
		p, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), 0), ccfg)
		if err != nil {
			return nil, err
		}
		p.AttachCounters(unit)
		if _, err := p.Run(0); err != nil {
			return nil, err
		}
		if unit.Delivered() == 0 {
			return nil, fmt.Errorf("fig2: no interrupts delivered")
		}
		return h, nil
	}

	inOrder, err := run(cpu.InOrderConfig(), 0)
	if err != nil {
		return nil, err
	}
	outOfOrder, err := run(cpu.DefaultConfig(), cfg.OoOJitter)
	if err != nil {
		return nil, err
	}
	return &figure2Result{LoopLen: loopLen, InOrder: inOrder, OutOfOrder: outOfOrder}, nil
}

// Check verifies the paper's qualitative claims: the in-order machine
// attributes almost all events to one fixed instruction offset (a single
// displaced peak), while the out-of-order machine smears them over many
// instructions.
func (r *figure2Result) Check() error {
	inSpread := r.InOrder.Spread(0.9)
	oooSpread := r.OutOfOrder.Spread(0.9)
	if err := checkf(inSpread <= 3,
		"fig2: in-order samples spread over %d offsets, want a single peak", inSpread); err != nil {
		return err
	}
	if err := checkf(oooSpread >= 3*inSpread,
		"fig2: out-of-order spread %d not much wider than in-order %d", oooSpread, inSpread); err != nil {
		return err
	}
	mode, _ := r.InOrder.Mode()
	return checkf(mode != 0,
		"fig2: in-order peak sits on the load itself; events should be displaced")
}

// Render returns the two histograms as text, offsets relative to the load.
func (r *figure2Result) Render() string {
	var b strings.Builder
	label := func(k int64) string { return fmt.Sprintf("load%+d", k) }
	fmt.Fprintf(&b, "Figure 2 — PC delivered to D-cache-reference counter interrupts\n")
	fmt.Fprintf(&b, "(offsets are instructions past the load; loop body = %d instructions)\n\n", r.LoopLen)
	fmt.Fprintf(&b, "in-order (21164-like): %d samples, 90%%-spread = %d offsets, peak at %s\n",
		r.InOrder.Total(), r.InOrder.Spread(0.9), label(firstKey(r.InOrder)))
	b.WriteString(r.InOrder.Render(48, label))
	fmt.Fprintf(&b, "\nout-of-order (21264-like): %d samples, 90%%-spread = %d offsets\n",
		r.OutOfOrder.Total(), r.OutOfOrder.Spread(0.9))
	b.WriteString(renderTopN(r.OutOfOrder, 25, label))
	return b.String()
}

func firstKey(h *stats.Histogram) int64 {
	k, _ := h.Mode()
	return k
}

// renderTopN renders only the most populated n keys (the OoO histogram can
// cover hundreds of offsets).
func renderTopN(h *stats.Histogram, n int, label func(int64) string) string {
	keys := h.Keys()
	if len(keys) <= n {
		return h.Render(48, label)
	}
	sub := stats.NewHistogram()
	// Keep the n keys with the largest counts.
	type kc struct {
		k int64
		c int64
	}
	all := make([]kc, 0, len(keys))
	for _, k := range keys {
		all = append(all, kc{k, h.Count(k)})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].c > all[i].c {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	var omitted int64
	for i, e := range all {
		if i < n {
			sub.AddN(e.k, e.c)
		} else {
			omitted += e.c
		}
	}
	out := sub.Render(48, label)
	if omitted > 0 {
		out += fmt.Sprintf("%12s %8d (over %d more offsets)\n", "...", omitted, len(all)-n)
	}
	return out
}
