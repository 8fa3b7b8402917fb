package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"profileme/internal/api"
)

// Witness replication is the tier's answer to total disk loss: the WAL
// survives a crash, but not a machine whose volume is gone. The Router
// forwards every accepted submission to the ring successor of the
// instance that accepted it, as a witness copy — the raw submission
// body, held verbatim so anti-entropy can resubmit it bit-identically.
// After the owner recovers (possibly empty), the Router's anti-entropy
// sweep compares each witness ledger against the owner's admission
// ledger (/v1/ledger), resubmits what the owner is missing (the owner's
// dedupe makes a raced retry harmless), and prunes what the owner
// holds.
//
// Endpoints (wired into Server.Handler):
//
//	POST /v1/witness         store one witness copy {origin, shard, body}
//	GET  /v1/witness/ledger  witness ledger, origin -> [{shard, captured}]
//	GET  /v1/witness/fetch   one stored body (?origin=&shard=)
//	POST /v1/witness/prune   drop reconciled copies {origin, shards}
//
// The store is in-memory and bounded: witness copies are redundancy,
// not the system of record (that is the owner's WAL), so an overflow
// refuses new copies rather than evicting old ones — the refused
// submission is still durable at its owner.

// errWitnessFull reports a witness store at capacity.
var errWitnessFull = errors.New("server: witness store full")

// witnessEntry is one held submission body.
type witnessEntry struct {
	body     []byte
	captured uint64
}

// witnessStore holds witness copies keyed by (origin instance, shard).
type witnessStore struct {
	mu     sync.Mutex
	cap    int
	byOrig map[string]map[string]witnessEntry
	st     witnessStats // the counters; stats fills in Origins
}

// newWitnessStore builds a store holding at most cap entries
// (default 8192 when cap <= 0).
func newWitnessStore(cap int) *witnessStore {
	if cap <= 0 {
		cap = 8192
	}
	return &witnessStore{cap: cap, byOrig: make(map[string]map[string]witnessEntry)}
}

// put stores one witness copy, idempotently per (origin, shard): a
// replacement body for a known key overwrites (the newest accepted copy
// wins) without consuming new capacity.
func (ws *witnessStore) put(origin, shard string, body []byte, captured uint64) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	m := ws.byOrig[origin]
	if m == nil {
		m = make(map[string]witnessEntry)
		ws.byOrig[origin] = m
	}
	if _, ok := m[shard]; !ok {
		if ws.st.Entries >= ws.cap {
			ws.st.Refused++
			return fmt.Errorf("%w: %d entries", errWitnessFull, ws.st.Entries)
		}
		ws.st.Entries++
	}
	m[shard] = witnessEntry{body: append([]byte(nil), body...), captured: captured}
	ws.st.Stored++
	return nil
}

// get returns one stored body.
func (ws *witnessStore) get(origin, shard string) ([]byte, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	e, ok := ws.byOrig[origin][shard]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.body...), true
}

// witnessShard is one ledger row.
type witnessShard struct {
	Shard    string `json:"shard"`
	Captured uint64 `json:"captured"`
}

// ledger snapshots the full witness ledger, origin -> sorted rows.
func (ws *witnessStore) ledger() map[string][]witnessShard {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make(map[string][]witnessShard, len(ws.byOrig))
	for origin, m := range ws.byOrig {
		rows := make([]witnessShard, 0, len(m))
		for shard, e := range m {
			rows = append(rows, witnessShard{Shard: shard, Captured: e.captured})
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

// witnessStats is the /v1/stats "witness" section.
type witnessStats struct {
	Entries int    `json:"entries"`
	Origins int    `json:"origins"`
	Stored  uint64 `json:"stored"`
	Refused uint64 `json:"refused"`
	Pruned  uint64 `json:"pruned"`
}

// stats snapshots the counters.
func (ws *witnessStore) stats() witnessStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	st := ws.st
	st.Origins = len(ws.byOrig)
	return st
}

// witnessPut is the POST /v1/witness body ([]byte as base64).
type witnessPut struct {
	Origin   string `json:"origin"`
	Shard    string `json:"shard"`
	Captured uint64 `json:"captured"`
	Body     []byte `json:"body"`
}

func (s *Server) handleWitnessPut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	body, err := api.ReadBody(w, r, "request", s.cfg.MaxBodyBytes*2, nil)
	if err != nil {
		return // ReadBody already replied
	}
	var p witnessPut
	if err := json.Unmarshal(body, &p); err != nil {
		api.WriteError(w, http.StatusBadRequest, "malformed", err.Error())
		return
	}
	if p.Origin == "" || p.Shard == "" || len(p.Body) == 0 {
		api.WriteError(w, http.StatusBadRequest, "malformed", "origin, shard and body are required")
		return
	}
	if err := s.witness.put(p.Origin, p.Shard, p.Body, p.Captured); err != nil {
		api.WriteError(w, http.StatusTooManyRequests, "witness-full", err.Error())
		return
	}
	api.WriteJSON(w, http.StatusAccepted, map[string]any{"origin": p.Origin, "shard": p.Shard})
}

func (s *Server) handleWitnessLedger(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"witness": s.witness.ledger()})
}

func (s *Server) handleWitnessFetch(w http.ResponseWriter, r *http.Request) {
	origin, shard := r.URL.Query().Get("origin"), r.URL.Query().Get("shard")
	if origin == "" || shard == "" {
		api.WriteError(w, http.StatusBadRequest, "param", "origin and shard parameters required")
		return
	}
	body, ok := s.witness.get(origin, shard)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown-witness", fmt.Sprintf("no witness copy for %s/%s", origin, shard))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// witnessPrune is the POST /v1/witness/prune body.
type witnessPrune struct {
	Origin string   `json:"origin"`
	Shards []string `json:"shards"`
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
	var p witnessPrune
	if err := json.Unmarshal(body, &p); err != nil || p.Origin == "" {
		api.WriteError(w, http.StatusBadRequest, "malformed", "origin and shards required")
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"pruned": s.witness.prune(p.Origin, p.Shards)})
}
