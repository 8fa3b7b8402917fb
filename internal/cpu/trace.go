package cpu

import (
	"fmt"

	"profileme/internal/sim"
)

// traceWindow buffers a sliding window of the correct-path dynamic
// instruction stream. The fetch engine reads records by sequence number;
// mispredict recovery and replay traps rewind fetch to a sequence number
// that is still in flight, so the window only needs to cover the maximum
// number of in-flight instructions plus fetch buffering.
type traceWindow struct {
	src  sim.Source
	buf  []sim.Record
	head int    // buf[head:] are live; the dead prefix is reclaimed lazily
	base uint64 // sequence number of buf[head]
	eof  bool
}

func newTraceWindow(src sim.Source) *traceWindow {
	return &traceWindow{src: src}
}

// at returns the record with the given sequence number, pulling from the
// source as needed. ok is false at end of stream. It panics if seq is
// older than the window base — that would mean the pipeline rewound past
// an already-retired instruction, which is a simulator bug.
func (w *traceWindow) at(seq uint64) (sim.Record, bool) {
	if seq < w.base {
		panic(fmt.Sprintf("cpu: trace rewind to %d below window base %d", seq, w.base))
	}
	for seq-w.base >= uint64(len(w.buf)-w.head) {
		if w.eof {
			return sim.Record{}, false
		}
		r, ok := w.src.Next()
		if !ok {
			w.eof = true
			return sim.Record{}, false
		}
		w.buf = append(w.buf, r)
	}
	return w.buf[w.head+int(seq-w.base)], true
}

// trim discards records with sequence numbers below seq; they can no
// longer be refetched. Trim runs once per retired instruction, so it must
// not move memory each call: it advances a head index and only compacts
// (slides the live tail down) once the dead prefix dominates the backing
// array, which keeps both the memory bound (~2x the in-flight window) and
// the per-retire cost O(1) amortized.
func (w *traceWindow) trim(seq uint64) {
	if seq <= w.base {
		return
	}
	drop := int(seq - w.base)
	if drop >= len(w.buf)-w.head {
		w.buf = w.buf[:0]
		w.head = 0
	} else {
		w.head += drop
		if w.head >= 64 && w.head > len(w.buf)/2 {
			n := copy(w.buf, w.buf[w.head:])
			w.buf = w.buf[:n]
			w.head = 0
		}
	}
	w.base = seq
}
