package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"profileme/internal/profile"
)

// The submission wire format is a small JSON envelope around the binary
// profile-database envelope of DESIGN.md §7:
//
//	{"shard": "compress/s003", "profile": "<base64 of profile.Save bytes>"}
//
// Layering the two envelopes keeps every integrity property of the disk
// format on the wire: the inner CRC32-C catches payload damage, the
// version field catches skew between old workers and a new collector,
// and both decode failures surface as the same typed profile.Err*
// errors callers already know how to classify.

// errBadSubmit reports a submission whose JSON envelope is malformed:
// undecodable JSON, a missing shard id, or an empty profile payload.
// Damage *inside* the payload surfaces as profile.ErrCorrupt /
// ErrTruncated / ErrVersionSkew instead.
var errBadSubmit = errors.New("ingest: malformed submission")

// record is the one JSON wrapper ([]byte marshals as base64) around a
// profile envelope: submission and handoff bodies on the wire, and every
// WAL record payload (walrec.go). Only WAL records carry Kind — a wire
// body's kind is implied by its endpoint. Declaration order is
// json.Marshal's order, which appendRecord writes, and pins a submission
// to exactly {"shard":…,"profile":…}.
type record struct {
	Kind    string   `json:"kind,omitempty"`
	Shard   string   `json:"shard,omitempty"`   // admit: shard id
	From    string   `json:"from,omitempty"`    // handoff, adopt: donor instance id
	Profile []byte   `json:"profile,omitempty"` // admit, handoff: profile.Save bytes
	Shards  []string `json:"shards,omitempty"`  // handoff, adopt: the donor's admitted shard ids
	Key     string   `json:"key,omitempty"`     // WAL handoff: envelope content digest
}

// The record envelope has one writer and two readers. appendRecord
// writes exactly the bytes json.Marshal(record) writes. readCanonical
// reads that layout for the two records that carry a shard — a
// submission body {"shard":…,"profile":…} and its WAL admit record
// {"kind":"admit","shard":…,"profile":…} — in one scan, decoding the
// profile as strict base64 straight into its buffer. encoding/json reads
// everything else: whitespace, escapes, other key order or case,
// base64 with non-zero padding bits, and every other record kind. On any
// input the one-pass reader accepts, encoding/json reads the same record
// (FuzzDecodeSubmit holds them to it), so the one-pass reader is only a
// shortcut.

// Canonical record heads: a submission body, and the WAL admit record it
// is logged as. Each is followed by a plain shard id (plainString),
// canonicalMid, the profile's base64 and canonicalTail.
const (
	submitHead    = `{"shard":"`
	admitHead     = `{"kind":"admit","shard":"`
	canonicalMid  = `","profile":"`
	canonicalTail = `"}`
)

var strictBase64 = base64.StdEncoding.Strict()

// appendRecord appends rec to b exactly as json.Marshal(rec) writes it.
// b64, when non-empty, is rec.Profile already base64-encoded — the span
// a canonical submission carried it in — and is copied in its place.
func appendRecord(b []byte, rec record, b64 []byte) []byte {
	b = append(b, '{')
	for _, f := range [...]struct{ key, val string }{{"kind", rec.Kind}, {"shard", rec.Shard}, {"from", rec.From}} {
		if f.val != "" {
			b = appendString(appendField(b, f.key), f.val)
		}
	}
	if len(b64) > 0 || len(rec.Profile) > 0 {
		b = append(appendField(b, "profile"), '"')
		if len(b64) > 0 {
			b = append(b, b64...)
		} else {
			b = base64.StdEncoding.AppendEncode(b, rec.Profile)
		}
		b = append(b, '"')
	}
	if len(rec.Shards) > 0 {
		b = append(appendField(b, "shards"), '[')
		for i, sh := range rec.Shards {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, sh)
		}
		b = append(b, ']')
	}
	if rec.Key != "" {
		b = appendString(appendField(b, "key"), rec.Key)
	}
	return append(b, '}')
}

// appendField appends an object key, after a comma unless it is the
// object's first.
func appendField(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendString appends s quoted as encoding/json quotes it: a plain
// string as is, any other by json.Marshal itself.
func appendString(b []byte, s string) []byte {
	if plainString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// plainString reports whether encoding/json writes s between its quotes
// unchanged: ASCII from 0x20 to 0x7f other than '"', '\\' and the
// HTML-escaped '<', '>' and '&'.
func plainString[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// recordCap is a capacity appendRecord fills without growing, unless a
// string needs escapes.
func recordCap(rec record, b64 int) int {
	if b64 == 0 {
		b64 = base64.StdEncoding.EncodedLen(len(rec.Profile))
	}
	n := 64 + b64 + len(rec.Kind) + len(rec.Shard) + len(rec.From) + len(rec.Key)
	for _, sh := range rec.Shards {
		n += len(sh) + 3
	}
	return n
}

// encodeRecord serializes rec, with save's output (when non-nil) as its
// profile payload.
func encodeRecord(rec record, save func(io.Writer) error) ([]byte, error) {
	if save != nil {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			return nil, err
		}
		rec.Profile = buf.Bytes()
	}
	return appendRecord(make([]byte, 0, recordCap(rec, 0)), rec, nil), nil
}

// scanCanonical splits body, if it is head + a plain shard id +
// canonicalMid + span + canonicalTail, into the shard id and the span.
// It is the one acceptance rule of both one-pass readers (readCanonical,
// decodeRecordHead): the span must be base64's alphabet, which makes body
// valid JSON holding exactly that record. Checking it here matters
// because base64's decoder, Strict() included, skips raw '\r' and '\n',
// which JSON forbids inside a string.
func scanCanonical(body []byte, head string) (shard, span []byte, ok bool) {
	if len(body) < len(head) || string(body[:len(head)]) != head {
		return nil, nil, false
	}
	rest := body[len(head):]
	i := bytes.IndexByte(rest, '"')
	if i < 0 || !plainString(rest[:i]) {
		return nil, nil, false
	}
	shard, rest = rest[:i], rest[i:]
	if len(rest) < len(canonicalMid)+len(canonicalTail) ||
		string(rest[:len(canonicalMid)]) != canonicalMid ||
		string(rest[len(rest)-len(canonicalTail):]) != canonicalTail {
		return nil, nil, false
	}
	span = rest[len(canonicalMid) : len(rest)-len(canonicalTail)]
	if !base64Alphabet(span) {
		return nil, nil, false
	}
	return shard, span, true
}

// notBase64 is 1 at every byte outside the standard base64 alphabet and
// its padding.
var notBase64 = func() (t [256]uint8) {
	for i := range t {
		t[i] = 1
	}
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=") {
		t[c] = 0
	}
	return t
}()

// base64Alphabet reports whether every byte of b is in the standard
// base64 alphabet or its padding. It ORs eight lookups a step with no
// branch on the bytes: a wide span is some 100 KB, and this check rides
// on every canonical submission.
func base64Alphabet(b []byte) bool {
	var bad uint8
	for ; len(b) >= 8; b = b[8:] {
		bad |= notBase64[b[0]] | notBase64[b[1]] | notBase64[b[2]] | notBase64[b[3]] |
			notBase64[b[4]] | notBase64[b[5]] | notBase64[b[6]] | notBase64[b[7]]
	}
	for _, c := range b {
		bad |= notBase64[c]
	}
	return bad == 0
}

// readCanonical is the one-pass reader: it reads body as the canonical
// record of the given kind (walKindAdmit for a submission body, "" for a
// WAL record), decoding the profile into a buffer of its decoded length.
// b64 is the profile's base64 span in body. ok is false for any body
// that is not canonical, or whose span is not strict base64; such a body
// is encoding/json's to read.
func readCanonical(body []byte, kind string) (rec record, b64 []byte, ok bool) {
	head := submitHead
	switch kind {
	case walKindAdmit:
	case "":
		head, rec.Kind = admitHead, walKindAdmit
	default:
		return record{}, nil, false
	}
	shard, b64, ok := scanCanonical(body, head)
	if !ok {
		return record{}, nil, false
	}
	buf := make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
	n, err := strictBase64.Decode(buf, b64)
	if err != nil {
		return record{}, nil, false
	}
	rec.Shard, rec.Profile = string(shard), buf[:n]
	return rec, b64, true
}

// decodeRecord parses body as a record of the given kind ("" for the
// kind the record names itself) — by readCanonical when it can, by
// encoding/json otherwise — and checks and loads it (loadRecord). b64 is
// the profile's base64 span in body when readCanonical read it and the
// verified envelope is the whole payload: a record that encodes exactly
// rec.Profile, which the WAL can log as received.
func decodeRecord(body []byte, kind, what string, bad error) (rec record, db *profile.DB, b64 []byte, err error) {
	rec, b64, ok := readCanonical(body, kind)
	if !ok {
		if err := json.Unmarshal(body, &rec); err != nil {
			return rec, nil, nil, fmt.Errorf("ingest: %s envelope: %v: %w", what, err, bad)
		}
	}
	whole := len(rec.Profile)
	if rec, db, err = loadRecord(rec, kind, what, bad); err != nil || len(rec.Profile) != whole {
		b64 = nil
	}
	return rec, db, b64, err
}

// loadRecord requires the fields a record of the given kind ("" for the
// kind the record names itself) needs and loads its profile payload (db
// is nil for an adopt record, which has none), leaving rec.Profile cut
// to the envelope that load verified. what names the record in
// messages; structural failures wrap bad, payload damage keeps its
// profile.Err* type.
func loadRecord(rec record, kind, what string, bad error) (record, *profile.DB, error) {
	if kind != "" {
		rec.Kind = kind
	}
	id := rec.From
	switch rec.Kind {
	case walKindAdmit:
		id = rec.Shard
	case walKindHandoff, walKindAdopt:
	default:
		return rec, nil, fmt.Errorf("ingest: %s kind %q: %w", what, rec.Kind, bad)
	}
	if id == "" {
		return rec, nil, fmt.Errorf("ingest: %s without a shard or donor instance id: %w", what, bad)
	}
	if rec.Kind == walKindAdopt {
		if len(rec.Shards) == 0 {
			return rec, nil, fmt.Errorf("ingest: %s from %q adopts no shards: %w", what, id, bad)
		}
		return rec, nil, nil
	}
	if len(rec.Profile) == 0 {
		return rec, nil, fmt.Errorf("ingest: %s %q without a profile payload: %w", what, id, bad)
	}
	r := bytes.NewReader(rec.Profile)
	db, err := profile.LoadDB(r)
	if err != nil {
		return rec, nil, fmt.Errorf("ingest: %s %q: %w", what, id, err)
	}
	rec.Profile = rec.Profile[:len(rec.Profile)-r.Len()]
	return rec, db, nil
}

// EncodeSubmit serializes one shard database as a submission body.
func EncodeSubmit(shard string, db *profile.DB) ([]byte, error) {
	if shard == "" {
		return nil, fmt.Errorf("ingest: encode: empty shard id: %w", errBadSubmit)
	}
	return encodeRecord(record{Shard: shard}, db.Save)
}

// DecodeSubmit parses a submission body. Every failure is typed —
// errBadSubmit for envelope problems, profile.ErrCorrupt/ErrTruncated/
// ErrVersionSkew for payload problems — and never a panic, whatever the
// bytes; FuzzDecodeSubmit holds it to that. The caller bounds the body
// size (http.MaxBytesReader); the framing layer allocates no more than
// the bytes present, whatever length the payload declares. The
// submission keeps the verified profile envelope, and a canonical body's
// base64 of it, so the WAL can log the client's bytes instead of
// re-encoding the decoded database.
func DecodeSubmit(body []byte) (Submission, error) {
	rec, db, b64, err := decodeRecord(body, walKindAdmit, "submission", errBadSubmit)
	if err != nil {
		return Submission{}, err
	}
	return Submission{Shard: rec.Shard, DB: db, wire: rec.Profile, b64: b64}, nil
}

// The handoff wire format reuses the same double-envelope layering
// as submissions: the donor's whole aggregate rides as profile.Save
// bytes (inner CRC32-C, version field), wrapped in JSON naming the donor
// instance and the shard ids its admission ledger holds. Shipping the
// ledger is what keeps the tier's dedupe honest across a removal: a client
// retrying a shard the donor already merged hits the receiver next, and
// the receiver must answer "duplicate", not merge it twice.

// Handoff is one decoded handoff: a donor instance's full
// aggregate plus its admitted-shard ledger.
type Handoff struct {
	// From is the donor's instance id (ledger provenance).
	From string
	// DB is the donor's aggregate, loss ledger included.
	DB *profile.DB
	// Shards are the shard ids the donor had admitted (queued or
	// merged); the receiver marks them admitted so retries dedupe.
	Shards []string
	// Key is the envelope's content digest (set by DecodeHandoff over
	// the wire bytes, and carried through WAL records). A redelivery of
	// the SAME serialized envelope — the router retrying after a lost
	// 202 — carries the same key, so AcceptHandoff dedupes it to a
	// duplicate ack instead of double-merging the donor's samples. A
	// donor that re-ENCODES (restart and re-export) gets a fresh key;
	// only byte-identical retries dedupe, which is exactly the retry
	// contract (the sender must reuse the encoded body, as the export
	// cache does).
	Key string
}

// handoffKey digests a handoff envelope's content. Deterministic over
// the serialized fields, not the JSON framing, so the key survives a
// WAL round trip.
func handoffKey(from string, profileBytes []byte, shards []string) string {
	h := sha256.New()
	io.WriteString(h, from)
	h.Write([]byte{0})
	h.Write(profileBytes)
	for _, sh := range shards {
		h.Write([]byte{0})
		io.WriteString(h, sh)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// EncodeHandoff serializes a donor aggregate for shipment to its
// receiver. save is the donor's serializer (SafeDB.Save) so the CRC
// envelope is written under the aggregate's own lock.
func EncodeHandoff(from string, save func(io.Writer) error, shards []string) ([]byte, error) {
	if from == "" {
		return nil, fmt.Errorf("ingest: encode handoff: empty instance id: %w", errBadSubmit)
	}
	return encodeRecord(record{From: from, Shards: shards}, save)
}

// DecodeHandoff parses a handoff body with the same typed-failure
// contract as DecodeSubmit.
func DecodeHandoff(body []byte) (Handoff, error) {
	rec, db, _, err := decodeRecord(body, walKindHandoff, "handoff", errBadSubmit)
	if err != nil {
		return Handoff{}, err
	}
	return Handoff{
		From:   rec.From,
		DB:     db,
		Shards: rec.Shards,
		Key:    handoffKey(rec.From, rec.Profile, rec.Shards),
	}, nil
}
