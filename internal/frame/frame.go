// Package frame owns every byte of framing in the repository's four
// binary formats — PMDB (profile database), PMCK (collector checkpoint),
// PMWS (WAL segment) and PMTF (traffic trace) — so each of them is
// "encode a payload, hand it to frame" and "ask frame for a payload,
// decode it". Integers are little-endian, checksums are CRC32-C over the
// payload alone, and three shapes cover everything (DESIGN.md §7
// "Framing" has the table):
//
//	header    magic[4] | version u32
//	envelope  header | len u64 | payload | crc32c u32     whole file: PMDB, PMCK
//	record    len u32 | crc32c u32 | payload              stream: PMWS, PMTF
//	block     len u32 | payload | crc32c u32              PMTF meta
//
// Every reader failure wraps exactly one of ErrCorrupt, ErrTruncated or
// ErrVersionSkew, and no reader allocates more than a constant beyond
// the bytes actually present, whatever length the input declares.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The one failure taxonomy. Callers classify with errors.Is and react
// (retry, re-collect, quarantine, migrate) instead of parsing text.
var (
	// ErrCorrupt: the bytes are not what the format says — bad magic,
	// checksum mismatch, a declared length above the format's cap, or a
	// payload its owner cannot decode.
	ErrCorrupt = errors.New("corrupt data")
	// ErrTruncated: the input ended before the framing said it would (an
	// interrupted write, a partial copy, a torn stream tail).
	ErrTruncated = errors.New("truncated data")
	// ErrVersionSkew: well-formed, but written by another format version.
	ErrVersionSkew = errors.New("format version skew")
)

const (
	// HeaderLen is the size of the magic | version header.
	HeaderLen = 8
	// RecordHeaderLen is the size of a stream record's len | crc header.
	RecordHeaderLen = 8
	// readChunk bounds how far a reader of unknown length grows its
	// buffer ahead of the bytes it has actually received.
	readChunk = 64 << 10
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader appends the magic | version header to dst.
func AppendHeader(dst []byte, magic string, version uint32) []byte {
	return le.AppendUint32(append(dst, magic[:4]...), version)
}

// AppendUint64 appends a fixed-width integer field (the PMWS segment
// header's sequence number).
func AppendUint64(dst []byte, v uint64) []byte { return le.AppendUint64(dst, v) }

// ReadHeader consumes and validates a header: a foreign magic is
// ErrCorrupt, another version ErrVersionSkew.
func ReadHeader(r io.Reader, magic string, version uint32) error {
	var hdr [HeaderLen]byte
	if _, err := readN(r, hdr[:0], HeaderLen); err != nil {
		return truncated(magic+" header", err)
	}
	if string(hdr[:4]) != magic {
		return fmt.Errorf("magic %q, want %q: %w", hdr[:4], magic, ErrCorrupt)
	}
	if v := le.Uint32(hdr[4:8]); v != version {
		return fmt.Errorf("%s format v%d, this build reads v%d: %w", magic, v, version, ErrVersionSkew)
	}
	return nil
}

// ReadUint64 consumes a fixed-width integer field.
func ReadUint64(r io.Reader) (uint64, error) {
	b, err := readN(r, nil, 8)
	if err != nil {
		return 0, truncated("header field", err)
	}
	return le.Uint64(b), nil
}

// WriteEnvelope writes a whole-file envelope whose payload fill encodes
// straight into the frame: the header and a length placeholder, then
// fill's bytes, then the length is patched and the checksum appended, so
// no payload buffer exists beside the envelope. A *bytes.Buffer
// destination is framed in place; any other writer gets the envelope in
// one Write from a buffer of its own. Either way fill is handed the
// *bytes.Buffer the frame is built in, so it may append to it directly.
// If fill fails nothing is written: a buffer destination is cut back to
// what it held before.
func WriteEnvelope(w io.Writer, magic string, version uint32, fill func(io.Writer) error) error {
	buf, inPlace := w.(*bytes.Buffer)
	if !inPlace {
		buf = new(bytes.Buffer)
	}
	start := buf.Len()
	var head [HeaderLen + 8]byte
	buf.Write(AppendUint64(AppendHeader(head[:0], magic, version), 0))
	if err := fill(buf); err != nil {
		buf.Truncate(start)
		return err
	}
	env := buf.Bytes()[start:]
	payload := env[len(head):]
	le.PutUint64(env[HeaderLen:], uint64(len(payload)))
	var crc [4]byte
	le.PutUint32(crc[:], checksum(payload))
	buf.Write(crc[:])
	if inPlace {
		return nil
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteEnvelopeParts writes a whole-file envelope whose payload is
// parts, in order, already encoded: each goes to w as it is, so pieces
// encoded apart are framed without a buffer that joins them.
func WriteEnvelopeParts(w io.Writer, magic string, version uint32, parts ...[]byte) error {
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	var head [HeaderLen + 8]byte
	if err := writeAll(w, AppendUint64(AppendHeader(head[:0], magic, version), uint64(n))); err != nil {
		return err
	}
	if err := writeAll(w, parts...); err != nil {
		return err
	}
	return writeAll(w, le.AppendUint32(head[:0], crc))
}

// ReadEnvelopeBody reads the rest of an envelope whose header the caller
// has already consumed and checked (ReadHeader), and returns its
// verified payload. limit caps the declared length.
func ReadEnvelopeBody(r io.Reader, limit int64) ([]byte, error) {
	n, err := ReadUint64(r)
	if err != nil {
		return nil, err
	}
	return readTrailed(r, n, limit)
}

// WriteBlock writes payload as a length-prefixed, checksum-trailed block.
func WriteBlock(w io.Writer, payload []byte) error {
	return writeAll(w, le.AppendUint32(nil, uint32(len(payload))), payload, le.AppendUint32(nil, checksum(payload)))
}

// ReadBlock reads a block and returns its verified payload.
func ReadBlock(r io.Reader, limit int64) ([]byte, error) {
	b, err := readN(r, nil, 4)
	if err != nil {
		return nil, truncated("block length", err)
	}
	return readTrailed(r, uint64(le.Uint32(b)), limit)
}

// RecordHeader frames one stream record: write the returned bytes, then
// the payload. It returns an array so a hot writer (wal.Stage) frames
// from its stack.
func RecordHeader(payload []byte) (hdr [RecordHeaderLen]byte) {
	le.PutUint32(hdr[0:4], uint32(len(payload)))
	le.PutUint32(hdr[4:8], checksum(payload))
	return hdr
}

// WriteRecord appends one stream record.
func WriteRecord(w io.Writer, payload []byte) error {
	hdr := RecordHeader(payload)
	return writeAll(w, hdr[:], payload)
}

// ReadRecord reads the next stream record into buf (grown as needed; pass
// the previous return value to reuse it) and returns the verified
// payload, which aliases buf. io.EOF, returned bare, means the stream
// ended exactly on a record boundary; a stream that ends anywhere else
// is ErrTruncated and a record that fails its checksum or declares more
// than limit bytes is ErrCorrupt, so a torn or rotted tail never yields a
// garbage record.
func ReadRecord(r io.Reader, buf []byte, limit int64) ([]byte, error) {
	buf, err := readN(r, buf, RecordHeaderLen)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, truncated("record header", err)
	}
	n, want := le.Uint32(buf[0:4]), le.Uint32(buf[4:8])
	if int64(n) > limit {
		return nil, fmt.Errorf("declared record %d bytes exceeds %d: %w", n, limit, ErrCorrupt)
	}
	if buf, err = readN(r, buf, int(n)); err != nil {
		return nil, truncated("record payload", err)
	}
	if got := checksum(buf); got != want {
		return nil, fmt.Errorf("record checksum %08x != %08x: %w", got, want, ErrCorrupt)
	}
	return buf, nil
}

// readTrailed reads a declared-length payload and its checksum trailer.
func readTrailed(r io.Reader, n uint64, limit int64) ([]byte, error) {
	if n > uint64(limit) {
		return nil, fmt.Errorf("declared payload %d bytes exceeds %d: %w", n, limit, ErrCorrupt)
	}
	b, err := readN(r, nil, int(n)+4)
	if err != nil {
		return nil, truncated("payload", err)
	}
	payload, want := b[:n], le.Uint32(b[n:])
	if got := checksum(payload); got != want {
		return nil, fmt.Errorf("checksum %08x != %08x: %w", got, want, ErrCorrupt)
	}
	return payload, nil
}

// readN reads exactly n bytes into buf[:0], growing it as needed. It is
// the one place a declared length turns into memory: a reader that knows
// how much it holds (Len, as *bytes.Reader has) is asked first and the
// allocation is exact; any other is followed in doubling chunks, so
// memory stays within a constant factor of the bytes received plus
// readChunk. On a short input the error is io.EOF when nothing at all
// was left and io.ErrUnexpectedEOF otherwise.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	step := readChunk
	if l, ok := r.(interface{ Len() int }); ok {
		if have := l.Len(); have < n {
			if have == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		step = n
	}
	buf = buf[:0]
	for len(buf) < n {
		grow := min(n-len(buf), max(step, len(buf)))
		buf = slices.Grow(buf, grow)[:len(buf)+grow]
		if _, err := io.ReadFull(r, buf[len(buf)-grow:]); err != nil {
			if err == io.EOF && len(buf) > grow {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

func truncated(what string, err error) error {
	return fmt.Errorf("%s: %v: %w", what, err, ErrTruncated)
}

func writeAll(w io.Writer, parts ...[]byte) error {
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}
