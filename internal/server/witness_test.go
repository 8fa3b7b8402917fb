package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

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
