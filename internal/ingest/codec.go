package ingest

import (
	"bytes"
	"crypto/sha256"
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
// body's kind is implied by its endpoint. Declaration order is wire
// order, and pins a submission to exactly {"shard":…,"profile":…}.
type record struct {
	Kind    string   `json:"kind,omitempty"`
	Shard   string   `json:"shard,omitempty"`   // admit: shard id
	From    string   `json:"from,omitempty"`    // handoff, adopt: donor instance id
	Profile []byte   `json:"profile,omitempty"` // admit, handoff: profile.Save bytes
	Shards  []string `json:"shards,omitempty"`  // handoff, adopt: the donor's admitted shard ids
	Key     string   `json:"key,omitempty"`     // WAL handoff: envelope content digest
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
	return json.Marshal(rec)
}

// decodeRecord parses body as a record of the given kind ("" for the
// kind the record names itself), requires the fields that kind needs and
// loads its profile payload (db is nil for an adopt record, which has
// none), leaving rec.Profile cut to the envelope that load verified.
// what names the body in messages; structural failures wrap bad, payload
// damage keeps its profile.Err* type.
func decodeRecord(body []byte, kind, what string, bad error) (rec record, db *profile.DB, err error) {
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, nil, fmt.Errorf("ingest: %s envelope: %v: %w", what, err, bad)
	}
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
	if db, err = profile.LoadDB(r); err != nil {
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
// submission keeps the verified profile envelope, so the WAL can log the
// client's bytes instead of re-encoding the decoded database.
func DecodeSubmit(body []byte) (Submission, error) {
	rec, db, err := decodeRecord(body, walKindAdmit, "submission", errBadSubmit)
	if err != nil {
		return Submission{}, err
	}
	return Submission{Shard: rec.Shard, DB: db, wire: rec.Profile}, nil
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
	rec, db, err := decodeRecord(body, walKindHandoff, "handoff", errBadSubmit)
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
