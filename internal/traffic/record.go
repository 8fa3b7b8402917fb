package traffic

import (
	"sync"
	"time"
)

// CaptureWriter is the live-capture side of a trace Writer, used by the
// pmtraffic record relay (the one live capture point): it serializes
// concurrent captures and stamps wall-clock offsets from the first one.
// Capture errors are remembered (first wins) rather than surfaced
// per-request — a capture problem must not fail the relayed submit.
type CaptureWriter struct {
	mu    sync.Mutex
	w     *Writer
	start time.Time
	err   error
}

// NewCaptureWriter wraps w.
func NewCaptureWriter(w *Writer) *CaptureWriter { return &CaptureWriter{w: w} }

// Capture records one submission body (copied: the caller keeps its
// slice).
func (cw *CaptureWriter) Capture(shard string, body []byte) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return
	}
	if cw.start.IsZero() {
		cw.start = time.Now()
	}
	bodyCopy := make([]byte, len(body))
	copy(bodyCopy, body)
	cw.err = cw.w.Append(Record{
		OffsetUS: time.Since(cw.start).Microseconds(),
		Shard:    shard,
		Body:     bodyCopy,
	})
}

// Err returns the first capture failure, if any.
func (cw *CaptureWriter) Err() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.err
}

// Count returns how many records have been captured.
func (cw *CaptureWriter) Count() int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.w.n
}
