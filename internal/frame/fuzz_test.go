package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"profileme/internal/frame"
)

// fuzzLimit is the declared-length cap the fuzzed readers run under: high
// enough that a hostile length passes the cap and has to be stopped by
// the bytes-present bound instead.
const fuzzLimit = 1 << 28

// envelopes are the whole-file headers the readers accept: PMDB v2 and
// PMCK v2.
var envelopes = []struct {
	magic   string
	version uint32
}{{"PMDB", 2}, {"PMCK", 2}}

// readEnvelope reads a whole-file envelope as LoadDB and ReadCheckpoint
// do: the header, then the body.
func readEnvelope(r io.Reader, magic string, version uint32) ([]byte, error) {
	if err := frame.ReadHeader(r, magic, version); err != nil {
		return nil, err
	}
	return frame.ReadEnvelopeBody(r, fuzzLimit)
}

// readAllShapes runs every frame reader over r(data) — each of the four
// formats' layouts from a header, and each bare shape from byte 0 — and
// returns the payloads delivered and the errors that ended each pass.
func readAllShapes(t *testing.T, r func([]byte) io.Reader, data []byte) (payloads [][]byte, errs []error) {
	keep := func(p []byte, err error) bool {
		if err != nil && err != io.EOF && !typed(err) {
			t.Fatalf("untyped error: %v", err)
		}
		if err == nil {
			payloads = append(payloads, bytes.Clone(p))
		}
		errs = append(errs, err)
		return err == nil
	}
	records := func(src io.Reader) {
		var buf []byte
		for ok := true; ok; {
			var err error
			buf, err = frame.ReadRecord(src, buf, fuzzLimit)
			ok = keep(buf, err)
		}
	}
	for _, h := range envelopes {
		keep(readEnvelope(r(data), h.magic, h.version))
	}
	src := r(data)
	if err := frame.ReadHeader(src, "PMWS", 1); keep(nil, err) {
		if _, err := frame.ReadUint64(src); keep(nil, err) {
			records(src)
		}
	}
	src = r(data)
	if err := frame.ReadHeader(src, "PMTF", 1); keep(nil, err) {
		if keep(frame.ReadBlock(src, fuzzLimit)) {
			records(src)
		}
	}
	keep(frame.ReadEnvelopeBody(r(data), fuzzLimit))
	keep(frame.ReadBlock(r(data), fuzzLimit))
	records(r(data))
	return payloads, errs
}

// FuzzFrame holds the framing core to its contract on arbitrary bytes:
// every reader ends in a clean decode, io.EOF on a record boundary, or
// one of the three typed errors — never a panic — and allocates no more
// than the input's size plus a constant per pass (a small multiple of it
// for a reader that cannot say how much it holds), whatever lengths the
// input declares. Sized and unsized readers must agree on every payload
// and every error class, and a cleanly decoded envelope re-frames to
// exactly the bytes it was read from. The input, taken as a payload, also
// goes through the envelope writer (checkEnvelopeWriter).
func FuzzFrame(f *testing.F) {
	for _, fixture := range golden {
		f.Add(fixture)
		f.Add(fixture[:len(fixture)-3])
		f.Add(fixture[frame.HeaderLen:]) // the bare shapes: envelope body, block + records
		f.Add(fixture[16:])              // past PMWS's 16-byte segment header: records alone
		// Another version (the retired v1 of PMDB and PMCK), a foreign
		// magic, and a checksum or payload byte flipped at the end.
		for at, to := range map[int]byte{4: fixture[4] ^ 3, 0: 'X', len(fixture) - 1: fixture[len(fixture)-1] ^ 1} {
			damaged := bytes.Clone(fixture)
			damaged[at] = to
			f.Add(damaged)
		}
	}
	f.Add([]byte{})
	// Hostile lengths inside the cap, nothing behind them.
	f.Add(frame.AppendUint64(frame.AppendHeader(nil, "PMDB", 2), fuzzLimit))
	f.Add(frame.AppendUint64(frame.AppendHeader(nil, "PMCK", 2), fuzzLimit))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})

	const passes, slack = 7, 128 << 10 // readAllShapes makes seven passes over the input
	f.Fuzz(func(t *testing.T, data []byte) {
		var sized, unsizedP [][]byte
		var sizedErrs, unsizedErrs []error
		got := allocated(func() {
			sized, sizedErrs = readAllShapes(t, func(b []byte) io.Reader { return bytes.NewReader(b) }, data)
		})
		// Each pass holds at most one payload buffer and keeps a copy of
		// what it delivered: two input sizes per pass.
		if bound := uint64(passes * (2*len(data) + slack)); got > bound {
			t.Fatalf("sized readers allocated %d bytes over a %d-byte input (bound %d)", got, len(data), bound)
		}
		got = allocated(func() {
			unsizedP, unsizedErrs = readAllShapes(t, func(b []byte) io.Reader { return unsized{bytes.NewReader(b)} }, data)
		})
		if bound := uint64(passes * (6*len(data) + slack)); got > bound {
			t.Fatalf("unsized readers allocated %d bytes over a %d-byte input (bound %d)", got, len(data), bound)
		}
		if !reflect.DeepEqual(sized, unsizedP) || len(sizedErrs) != len(unsizedErrs) {
			t.Fatalf("sized and unsized readers disagree: %d/%d payloads, %d/%d results",
				len(sized), len(unsizedP), len(sizedErrs), len(unsizedErrs))
		}
		for i := range sizedErrs {
			if class(sizedErrs[i]) != class(unsizedErrs[i]) {
				t.Fatalf("result %d: sized %v, unsized %v", i, sizedErrs[i], unsizedErrs[i])
			}
		}
		for _, h := range envelopes {
			if payload, err := readEnvelope(bytes.NewReader(data), h.magic, h.version); err == nil {
				var again bytes.Buffer
				if err := frame.WriteEnvelope(&again, h.magic, h.version, writes(payload)); err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(data, again.Bytes()) {
					t.Fatalf("%s v%d envelope does not re-frame to its own bytes", h.magic, h.version)
				}
			}
		}
		checkEnvelopeWriter(t, data)
	})
}

// writes is a fill that writes payload as it is.
func writes(payload []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}
}

// plainWriter hides a bytes.Buffer's type, forcing WriteEnvelope onto its
// own buffer and one Write.
type plainWriter struct{ io.Writer }

var errFill = errors.New("fill failed")

// checkEnvelopeWriter holds both envelope writers to the layout with
// payload as the payload: framed in place after whatever a buffer
// already holds (part of it already read), handed whole to any other
// writer, or written from parts, the bytes are header | len | payload |
// crc32c as DESIGN.md §7 states it, assembled here by hand; a fill that
// fails part-way leaves the buffer as it was and writes nothing to a
// plain writer.
func checkEnvelopeWriter(t *testing.T, payload []byte) {
	want := frame.AppendUint64(frame.AppendHeader(nil, "PMCK", 1), uint64(len(payload)))
	want = append(want, payload...)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	failing := func(w io.Writer) error {
		w.Write(payload[:len(payload)/2])
		return errFill
	}

	prefix := payload[:len(payload)/3]
	buf := bytes.NewBuffer(bytes.Clone(prefix))
	buf.Next(len(prefix) / 2)
	held := bytes.Clone(buf.Bytes())
	if err := frame.WriteEnvelope(buf, "PMCK", 1, failing); err != errFill || !bytes.Equal(buf.Bytes(), held) {
		t.Fatalf("failed fill in place: err %v, buffer %d bytes, want the %d it held", err, buf.Len(), len(held))
	}
	if err := frame.WriteEnvelope(buf, "PMCK", 1, writes(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), append(held, want...)) {
		t.Fatalf("in-place envelope of a %d-byte payload differs from the layout", len(payload))
	}

	var plain bytes.Buffer
	if err := frame.WriteEnvelope(plainWriter{&plain}, "PMCK", 1, failing); err != errFill || plain.Len() != 0 {
		t.Fatalf("failed fill to a plain writer: err %v, %d bytes written", err, plain.Len())
	}
	if err := frame.WriteEnvelope(plainWriter{&plain}, "PMCK", 1, writes(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), want) {
		t.Fatalf("envelope of a %d-byte payload to a plain writer differs from the layout", len(payload))
	}

	var parts bytes.Buffer
	cut := len(payload) / 3
	if err := frame.WriteEnvelopeParts(plainWriter{&parts}, "PMCK", 1, payload[:cut], nil, payload[cut:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parts.Bytes(), want) {
		t.Fatalf("envelope of a %d-byte payload written in parts differs from the layout", len(payload))
	}
}

// class folds an error to the taxonomy member it wraps.
func class(err error) error {
	for _, c := range []error{frame.ErrCorrupt, frame.ErrTruncated, frame.ErrVersionSkew} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}
