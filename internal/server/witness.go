package server

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"profileme/internal/api"
)

// This is the holder's half of witness replication, the tier's answer
// to total disk loss (the router's half is internal/cluster/witness.go,
// the design DESIGN.md §12): a store of submission bodies keyed by the
// instance that acknowledged each (its origin) and the shard, held
// deflated and inflated on fetch to the bit-identical original, so
// anti-entropy resubmits exactly what the origin accepted. Every body
// takes the one path, whatever it holds. The store is in-memory and
// bounded, and a full one refuses new copies rather than evicting old
// ones: a copy is redundancy, and the origin's WAL is the system of
// record. api.WitnessCopy and its neighbours declare:
//
//	POST /v1/witness         store a copy: ?origin=&shard=&captured=, the submission as body
//	GET  /v1/witness/ledger  the copies held, origin -> [{shard, captured}]
//	GET  /v1/witness/fetch   one copy's bytes (?origin=&shard=)
//	POST /v1/witness/prune   drop copies their origin holds {origin, shards}

// witnessEntry is one held submission body: z is the body deflated,
// n its length before.
type witnessEntry struct {
	z        []byte
	n        int
	captured uint64
}

// deflater is a flate writer with the buffer it writes into. A
// BestSpeed writer is about 1.1 MB, so writers live in a pool, which two
// GCs empty, rather than in the store, which would pin one for good.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed) // fails only for an invalid level
	return &deflater{zw: zw}
}}

// deflate returns body compressed, at its own size: the pooled buffer
// has slack.
func deflate(body []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.zw.Reset(&d.buf)
	d.zw.Write(body) // writes into a bytes.Buffer, which does not fail
	d.zw.Close()
	return bytes.Clone(d.buf.Bytes())
}

// inflate returns the body e holds, or an error when its bytes do not
// inflate to exactly e.n of them.
func inflate(e witnessEntry) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(e.z))
	defer zr.Close()
	body := make([]byte, e.n)
	if _, err := io.ReadFull(zr, body); err != nil {
		return nil, fmt.Errorf("server: witness copy of %d bytes: %w", e.n, err)
	}
	var extra [1]byte
	if n, err := zr.Read(extra[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("server: witness copy longer than its %d bytes", e.n)
	}
	return body, nil
}

// witnessStore holds witness copies keyed by (origin instance, shard).
type witnessStore struct {
	mu     sync.Mutex
	cap    int
	byOrig map[string]map[string]witnessEntry
	st     api.WitnessStats // the counters; stats fills in Origins
}

// newWitnessStore builds a store holding at most cap entries.
func newWitnessStore(cap int) *witnessStore {
	return &witnessStore{cap: cap, byOrig: make(map[string]map[string]witnessEntry)}
}

// put stores a deflated copy of body, idempotently per (origin, shard):
// a replacement body for a known key overwrites (the newest accepted
// copy wins) without consuming new capacity. It deflates before taking
// the lock.
func (ws *witnessStore) put(c api.WitnessCopy, body []byte) error {
	e := witnessEntry{z: deflate(body), n: len(body), captured: c.Captured}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	m := ws.byOrig[c.Origin]
	if m == nil {
		m = make(map[string]witnessEntry)
		ws.byOrig[c.Origin] = m
	}
	if _, ok := m[c.Shard]; !ok {
		if ws.st.Entries >= ws.cap {
			ws.st.Refused++
			return fmt.Errorf("server: witness store full: %d entries", ws.st.Entries)
		}
		ws.st.Entries++
	}
	m[c.Shard] = e
	ws.st.Stored++
	return nil
}

// get returns one stored body, inflated outside the lock; ok is false
// when no copy is held, err non-nil when the held one does not inflate.
func (ws *witnessStore) get(c api.WitnessCopy) (body []byte, ok bool, err error) {
	ws.mu.Lock()
	e, ok := ws.byOrig[c.Origin][c.Shard]
	ws.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	body, err = inflate(e)
	return body, true, err
}

// ledger snapshots the full witness ledger, origin -> sorted rows.
func (ws *witnessStore) ledger() map[string][]api.WitnessRow {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make(map[string][]api.WitnessRow, len(ws.byOrig))
	for origin, m := range ws.byOrig {
		rows := make([]api.WitnessRow, 0, len(m))
		for shard, e := range m {
			rows = append(rows, api.WitnessRow{Shard: shard, Captured: e.captured})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Shard < rows[j].Shard })
		out[origin] = rows
	}
	return out
}

// prune drops reconciled copies.
func (ws *witnessStore) prune(origin string, shards []string) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	m := ws.byOrig[origin]
	n := 0
	for _, sh := range shards {
		if _, ok := m[sh]; ok {
			delete(m, sh)
			ws.st.Entries--
			ws.st.Pruned++
			n++
		}
	}
	if len(m) == 0 {
		delete(ws.byOrig, origin)
	}
	return n
}

// stats snapshots the counters.
func (ws *witnessStore) stats() api.WitnessStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	st := ws.st
	st.Origins = len(ws.byOrig)
	return st
}

// handleWitnessPut stores one witness copy: the query names it, the body
// is the submission as its origin accepted it.
func (s *Server) handleWitnessPut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	c, err := api.ParseWitnessCopy(r.URL.Query())
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "malformed", err.Error())
		return
	}
	body, err := api.ReadBody(w, r, "witness", s.cfg.MaxBodyBytes, nil)
	if err != nil {
		return // ReadBody already replied
	}
	if len(body) == 0 {
		api.WriteError(w, http.StatusBadRequest, "malformed", "empty witness body")
		return
	}
	if err := s.witness.put(c, body); err != nil {
		api.WriteError(w, http.StatusTooManyRequests, "witness-full", err.Error())
		return
	}
	api.WriteJSON(w, http.StatusAccepted, c)
}

func (s *Server) handleWitnessLedger(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.WitnessLedger{Witness: s.witness.ledger()})
}

func (s *Server) handleWitnessFetch(w http.ResponseWriter, r *http.Request) {
	c, err := api.ParseWitnessCopy(r.URL.Query())
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "param", err.Error())
		return
	}
	body, ok, err := s.witness.get(c)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown-witness", fmt.Sprintf("no witness copy for %s/%s", c.Origin, c.Shard))
		return
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleWitnessPrune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	body, err := api.ReadBody(w, r, "request", s.cfg.MaxBodyBytes, nil)
	if err != nil {
		return
	}
	var p api.WitnessPrune
	if err := json.Unmarshal(body, &p); err != nil || p.Origin == "" {
		api.WriteError(w, http.StatusBadRequest, "malformed", "origin and shards required")
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Pruned{Pruned: s.witness.prune(p.Origin, p.Shards)})
}
