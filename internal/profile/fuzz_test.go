package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"profileme/internal/core"
)

// FuzzLoadDB feeds LoadDB arbitrary payloads inside a well-formed
// envelope of either version (gob is true for version 1), and the same
// bytes bare. What damaged framing decodes to is internal/frame's
// contract (FuzzFrame); the contract here is the payload's: every
// rejection is one of the three typed errors (never a panic), a payload
// the envelope vouches for but the decoder or the sanity checks refuse
// is ErrCorrupt, and an accepted database is immediately usable and
// saves to an image that loads.
func FuzzLoadDB(f *testing.F) {
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 2
	db.RegisterPairMetric("near", RetiredWithin(10))
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Addr, r.AddrValid = 0xbeef, true
	db.Add(core.Sample{First: r})
	db.Add(pairSample(0x40, 0x48, 1))
	db.RecordLoss(3)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()[headerBytes : buf.Len()-4] // the row table alone

	f.Add(false, valid)
	f.Add(false, valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(false, flipped)
	f.Add(false, []byte{})
	f.Add(false, []byte("not a profile database at all"))
	// Row tables the structural checks, not the varint reader, must
	// refuse: a repeated PC, and a row with pair metrics for a database
	// without metrics.
	lo := &PCAccum{PC: 0x40}
	for _, img := range [][]byte{
		rowImage(f, NewDB(100, 80, 4), lo, lo),
		rowImage(f, NewDB(100, 80, 4), &PCAccum{PC: 0x40, PairMetrics: []uint64{1, 2, 3}}),
	} {
		f.Add(false, img[headerBytes:len(img)-4])
	}
	// Version 1: a gob image, one the sanity checks must refuse (a
	// negative window), gob of some other type entirely, and an image that
	// lists a PC twice.
	for _, v := range []any{dbImage{S: 100, W: 80, C: 4, Samples: 3}, dbImage{S: 100, W: -80, C: 4},
		struct{ Name string }{"other"}, duplicatePCImage()} {
		var other bytes.Buffer
		if err := gob.NewEncoder(&other).Encode(v); err != nil {
			f.Fatal(err)
		}
		f.Add(true, other.Bytes())
	}

	f.Fuzz(func(t *testing.T, gobPayload bool, payload []byte) {
		version := uint32(dbVersion)
		if gobPayload {
			version = dbVersionGob
		}
		img := envelope(t, version, payload)
		got, err := LoadDB(bytes.NewReader(img))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("intact envelope, bad payload: want ErrCorrupt, got %v", err)
		}
		// Bare, the payload is a foreign file: damage, or (when it is a
		// gob image) the pre-envelope format.
		if _, err := LoadDB(bytes.NewReader(payload)); err == nil ||
			(!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersionSkew)) {
			t.Fatalf("bare payload: want a typed error, got %v", err)
		}
		if got == nil {
			return
		}
		// Accepted: the database must answer queries without blowing up.
		for _, pc := range got.PCs() {
			got.EstimatedCount(pc)
		}
		_ = got.Report(nil, 20)
		_ = got.LossRate()
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDB(&again); err != nil {
			t.Fatalf("an accepted database does not load back: %v", err)
		}
	})
}
