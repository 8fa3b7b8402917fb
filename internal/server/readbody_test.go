package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"profileme/internal/api"
	"profileme/internal/stats"
)

// readRequest builds a POST carrying body with the given declared
// Content-Length (-1: unknown).
func readRequest(body []byte, declared int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
	r.ContentLength = declared
	return r
}

// TestReadBoundedPresized: api.ReadBody sizes its buffer from the declared
// Content-Length but believes at most 1 MiB of it, and reads exactly what
// io.ReadAll reads whatever the declaration says.
func TestReadBoundedPresized(t *testing.T) {
	const max = 16 << 20

	// A request that declares 8 MiB and sends 10 bytes.
	liar := readRequest([]byte("0123456789"), 8<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := api.ReadBody(httptest.NewRecorder(), liar, "submission", max, nil)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("declared 8 MiB, sent 10 bytes: read %q, %v", got, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("declared 8 MiB, sent 10 bytes: allocated %d bytes, want < 2 MiB", n)
	}

	// Bodies from 0 B to 2 MiB, declared truly, not at all, or short.
	rng := stats.NewRNG(7)
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 64<<10 + 3, api.PresizeCap - 1, api.PresizeCap, api.PresizeCap + 1, 2 << 20} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(rng.Intn(256))
		}
		want, _ := io.ReadAll(bytes.NewReader(body))
		for _, declared := range []int64{int64(n), -1, int64(n / 2)} {
			got, err := api.ReadBody(httptest.NewRecorder(), readRequest(body, declared), "submission", max, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d-byte body declared %d: read %d bytes (%v), io.ReadAll read %d",
					n, declared, len(got), err, len(want))
			}
			if declared == int64(n) && n <= api.PresizeCap && cap(got) > n+bytes.MinRead {
				t.Fatalf("%d-byte body declared truly: buffer grew to %d", n, cap(got))
			}
		}
	}

	// Oversized bodies are still refused, whatever they declare.
	for _, declared := range []int64{2048, -1, 10} {
		rec := httptest.NewRecorder()
		if _, err := api.ReadBody(rec, readRequest(make([]byte, 2048), declared), "submission", 1024, nil); err == nil ||
			rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("2048-byte body declared %d over a 1024 limit: %d, %v", declared, rec.Code, err)
		}
		wantKind(t, decodeBody(t, rec), "oversized")
	}
}
