package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
)

// FuzzLoadDB feeds LoadDB arbitrary payloads inside a well-formed
// envelope, and the same bytes bare. What damaged framing decodes to is
// internal/frame's contract (FuzzFrame); the contract here is the
// payload's: every rejection is one of the three typed errors (never a
// panic), a payload the envelope vouches for but gob or the sanity checks
// refuse is ErrCorrupt, and an accepted database is immediately usable.
func FuzzLoadDB(f *testing.F) {
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 2
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Addr, r.AddrValid = 0xbeef, true
	db.Add(core.Sample{First: r})
	db.RecordLoss(3)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()[headerBytes : buf.Len()-4] // the gob payload alone

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("not a profile database at all"))
	// Well-formed gob that the sanity checks, not the decoder, must refuse
	// (a negative window), gob of some other type entirely, and an image
	// that lists a PC twice.
	for _, v := range []any{dbImage{S: 100, W: -80, C: 4}, struct{ Name string }{"other"}, duplicatePCImage()} {
		var other bytes.Buffer
		if err := gob.NewEncoder(&other).Encode(v); err != nil {
			f.Fatal(err)
		}
		f.Add(other.Bytes())
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var img bytes.Buffer
		if err := frame.WriteEnvelope(&img, dbMagic, dbVersion, func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDB(&img)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("intact envelope, bad payload: want ErrCorrupt, got %v", err)
		}
		// Bare, the payload is a foreign file: damage, or (when it is a
		// gob image, as valid is) the pre-envelope format.
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
	})
}
