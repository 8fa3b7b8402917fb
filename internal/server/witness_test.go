package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"profileme/internal/api"
	"profileme/internal/ingest"
)

// TestWitnessPut: a witness put names its copy in the query and carries
// the submission as its body. A missing origin or shard, an empty body
// or a captured total that is not a count is 400 malformed; a full store
// is 429 witness-full; a stored copy is fetched back byte for byte.
func TestWitnessPut(t *testing.T) {
	srv := New(Config{}, testService(t, nil))
	srv.witness = newWitnessStore(2)
	h := srv.Handler()
	body, err := ingest.EncodeSubmit("c0/s0", wireShard())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, query string
		body        []byte
	}{
		{"no origin", "shard=c0/s0&captured=7", body},
		{"no shard", "origin=c0&captured=7", body},
		{"empty body", "origin=c0&shard=c0/s0&captured=7", nil},
		{"captured not a count", "origin=c0&shard=c0/s0&captured=seven", body},
	} {
		status, reply := post(t, h, "/v1/witness?"+c.query, c.body)
		if status != http.StatusBadRequest || reply["kind"] != "malformed" {
			t.Errorf("%s: %d %v, want 400 malformed", c.name, status, reply)
		}
	}

	for _, shard := range []string{"c0/s0", "c0/s1"} {
		status, reply := post(t, h, "/v1/witness?origin=c0&captured=7&shard="+shard, body)
		if status != http.StatusAccepted || reply["origin"] != "c0" || reply["shard"] != shard || len(reply) != 2 {
			t.Fatalf("put %s: %d %v, want 202 naming the copy", shard, status, reply)
		}
	}
	if status, reply := post(t, h, "/v1/witness?origin=c1&shard=c1/s0&captured=7", body); status != http.StatusTooManyRequests || reply["kind"] != "witness-full" {
		t.Fatalf("put past capacity: %d %v, want 429 witness-full", status, reply)
	}
	if status, _ := post(t, h, "/v1/witness?origin=c0&shard=c0/s0&captured=9", body); status != http.StatusAccepted {
		t.Fatalf("a replacement copy at capacity: %d, want 202", status)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/witness/fetch?origin=c0&shard=c0/s0", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("fetch: %d, %d bytes; want 200 and the %d bytes put", rec.Code, rec.Body.Len(), len(body))
	}
	status, led := get(t, h, "/v1/witness/ledger")
	rows, _ := led["witness"].(map[string]any)["c0"].([]any)
	if status != http.StatusOK || len(rows) != 2 || rows[0].(map[string]any)["captured"] != 9.0 {
		t.Fatalf("witness ledger: %d %v, want c0's two copies, the replaced one at captured 9", status, led)
	}
}

// fetchWitness GETs one copy: the status and the reply's bytes.
func fetchWitness(h http.Handler, origin, shard string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/witness/fetch?origin="+origin+"&shard="+shard, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestWitnessCopyRoundTrip: a copy is held deflated, and a fetch answers
// the bytes put, bit for bit, whatever they hold: canonical narrow and
// wide submissions, a body whose JSON is not canonical, incompressible
// bytes and a copy at the 8 MiB submission bound. A replacement is what
// later fetches answer, a pruned copy is 404, and a held copy that does
// not inflate to its recorded length is 500 internal.
func TestWitnessCopyRoundTrip(t *testing.T) {
	srv := New(Config{}, testService(t, nil))
	h := srv.Handler()
	encode := func(shard string, pcs int) []byte {
		db := wireShard()
		if pcs > 0 {
			db = spreadShard(pcs)
		}
		body, err := ingest.EncodeSubmit(shard, db)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	narrow := encode("c0/narrow", 0)
	var sub map[string]any
	if err := json.Unmarshal(narrow, &sub); err != nil {
		t.Fatal(err)
	}
	reordered := fmt.Sprintf("{ \"profile\" :\n\t%q ,\n  \"shard\":%q }\n", sub["profile"], sub["shard"])
	rng := rand.New(rand.NewSource(59))
	random := make([]byte, 64<<10)
	rng.Read(random)
	atBound := make([]byte, 8<<20)
	rng.Read(atBound)
	bodies := []struct {
		shard string
		body  []byte
	}{
		{"c0/narrow", narrow},
		{"c0/wide", encode("c0/wide", 2048)},
		{"c0/reordered", []byte(reordered)},
		{"c0/random", random},
		{"c0/bound", atBound},
	}
	for _, b := range bodies {
		if status, reply := post(t, h, "/v1/witness?origin=c0&captured=1&shard="+b.shard, b.body); status != http.StatusAccepted {
			t.Fatalf("put %s (%d bytes): %d %v", b.shard, len(b.body), status, reply)
		}
	}
	for _, b := range bodies {
		status, got := fetchWitness(h, "c0", b.shard)
		if status != http.StatusOK || !bytes.Equal(got, b.body) {
			t.Errorf("fetch %s: %d, %d bytes; want 200 and the %d bytes put", b.shard, status, len(got), len(b.body))
		}
	}

	if status, _ := post(t, h, "/v1/witness?origin=c0&captured=2&shard=c0/narrow", random); status != http.StatusAccepted {
		t.Fatalf("replacement put: %d", status)
	}
	if status, got := fetchWitness(h, "c0", "c0/narrow"); status != http.StatusOK || !bytes.Equal(got, random) {
		t.Errorf("fetch after replacement: %d, %d bytes; want the %d replacement bytes", status, len(got), len(random))
	}
	prune, _ := json.Marshal(api.WitnessPrune{Origin: "c0", Shards: []string{"c0/wide"}})
	if status, reply := post(t, h, "/v1/witness/prune", prune); status != http.StatusOK || reply["pruned"] != 1.0 {
		t.Fatalf("prune: %d %v", status, reply)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/witness/fetch?origin=c0&shard=c0/wide", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("fetch after prune: %d, want 404", rec.Code)
	}
	wantKind(t, decodeBody(t, rec), "unknown-witness")

	z := deflate(narrow)
	for name, e := range map[string]witnessEntry{
		"not deflate": {z: []byte("not a deflate stream"), n: len(narrow)},
		"cut short":   {z: z[:len(z)/2], n: len(narrow)},
		"longer":      {z: z, n: len(narrow) - 1},
		"shorter":     {z: z, n: len(narrow) + 1},
	} {
		srv.witness.mu.Lock()
		srv.witness.byOrig["c9"] = map[string]witnessEntry{"c9/s0": e}
		srv.witness.mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/witness/fetch?origin=c9&shard=c9/s0", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: fetch %d, want 500", name, rec.Code)
			continue
		}
		wantKind(t, decodeBody(t, rec), "internal")
	}
}

// TestWitnessFootprint holds a holder's witness memory to the copies
// themselves, in the style of profile's TestSketchFootprint. A copy of
// the 4,382-byte canonical wireShard submission retained 4,993 B (114%)
// when the store held bodies verbatim, and about 1,170 B (27%) deflated,
// entry and map slot included. The flate writers live in a pool that two
// collections empty; one kept in the store would pin about 1.1 MB, 1.2 KB
// more per copy here.
func TestWitnessFootprint(t *testing.T) {
	const copies, maxShare = 1000, 0.35
	body, err := ingest.EncodeSubmit("c0/s0", wireShard())
	if err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// The smallest of up to three builds, which discards another
	// goroutine's allocation during one; a build within bound ends it.
	best := int64(math.MaxInt64)
	for try := 0; try < 3 && float64(best/copies) > maxShare*float64(len(body)); try++ {
		before := live()
		ws := newWitnessStore(copies)
		for i := 0; i < copies; i++ {
			c := api.WitnessCopy{Origin: "c0", Shard: fmt.Sprintf("c0/s%d", i), Captured: 1}
			if err := ws.put(c, body); err != nil {
				t.Fatal(err)
			}
		}
		best = min(best, live()-before)
		runtime.KeepAlive(ws)
	}
	per := best / copies
	t.Logf("%d copies of a %d-byte body retain %d B, %d B per copy (%.0f%%)", copies, len(body), best, per, 100*float64(per)/float64(len(body)))
	if float64(per) > maxShare*float64(len(body)) {
		t.Errorf("a witness copy of %d bytes retains %d B, want <= %.0f%% of the body", len(body), per, 100*maxShare)
	}
}
