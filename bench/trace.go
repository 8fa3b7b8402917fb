package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Start and End
// are nanoseconds since the tracer was created; Parent is the index of
// the span that caused this one (-1 for a root); Input names the input
// the call worked on, so spans of one request share an identifier; Ops
// is how many operations the span covers when one span wraps a loop.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Input  string `json:"input,omitempty"`
	Ops    int64  `json:"ops,omitempty"`
}

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil tracer records nothing, so the untraced and traced passes run
// the same code.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), counts: map[string]float64{}}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name, input string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Input: input, Ops: 1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id; ops > 0 overrides the operation count.
func (t *tracer) end(id int, ops int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	if ops > 0 {
		t.spans[id].Ops = ops
	}
	t.mu.Unlock()
}

// count records a boundary count (a layer's own statistic).
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// durations returns the span durations (ns) recorded under name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ds = append(ds, float64(t.spans[i].End-t.spans[i].Start))
		}
	}
	return ds
}

// p50 is the median span duration under name, in nanoseconds.
func (t *tracer) p50(name string) float64 { return median(t.durations(name)) }

// perOp is total time over total operations under name, in nanoseconds.
func (t *tracer) perOp(name string) float64 {
	var ns, ops float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += float64(t.spans[i].End - t.spans[i].Start)
			ops += float64(t.spans[i].Ops)
		}
	}
	if ops == 0 {
		return 0
	}
	return ns / ops
}

// write stores the trace as JSON: the run header, every span, every count.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(map[string]any{"header": header, "spans": t.spans, "counts": t.counts})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
