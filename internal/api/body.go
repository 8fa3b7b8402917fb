package api

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
)

// PresizeCap bounds what ReadBody allocates on a request's word: a
// declared Content-Length is believed up to 1 MiB, and a body longer
// than that grows as it arrives.
const PresizeCap = 1 << 20

// ReadBody reads a request body (what names it: "submission",
// "handoff", "request") up to limit bytes into buf's array, grown first
// to hold the declared length with bytes.MinRead spare, so the read
// that finds the end of a body of exactly that length does not grow it
// (nil allocates). On failure it answers the request itself — 413
// oversized, 400 body otherwise — and returns the error, so the handler
// can just return.
func ReadBody(w http.ResponseWriter, r *http.Request, what string, limit int64, buf []byte) ([]byte, error) {
	if n := max(min(r.ContentLength, limit, PresizeCap), 0) + bytes.MinRead; int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "oversized", fmt.Sprintf("%s body exceeds %d bytes", what, limit))
		} else {
			WriteError(w, http.StatusBadRequest, "body", err.Error())
		}
		return nil, err
	}
	return b.Bytes(), nil
}
