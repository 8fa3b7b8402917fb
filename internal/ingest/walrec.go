package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// WAL record payloads reuse the submission codec's double-envelope
// layering: a small JSON frame naming the record kind, wrapped around
// the binary profile envelope of DESIGN.md §7. The WAL adds its own
// CRC32-C frame per record, so a damaged record is cut at the WAL layer
// before this codec ever sees it; the inner profile CRC still guards
// against encode-time corruption.
//
// Three kinds exist. Refusals deliberately have no record: a refusal
// is just the ABSENCE of a resolution for an admit record, and the
// standing-loss ledger entry rides in the next checkpoint. Replaying an
// admit record whose submission was refused pre-crash merges it instead
// — strictly better (the payload was durable anyway), and conservation
// holds because the shard's captured samples count once either way.
// Adopt records carry no profile: a ledger adoption moves DEDUPE
// obligations (shard ids whose samples live elsewhere in the fleet),
// never samples, so replaying one reconstructs admitted-with-provenance
// entries and nothing in the aggregate.
const (
	walKindAdmit   = "admit"
	walKindHandoff = "handoff"
	walKindAdopt   = "adopt"
)

// errBadWALRecord reports a structurally invalid WAL record payload —
// possible only through an encoder bug or post-CRC memory corruption,
// so replay treats it as a torn record (stop, don't crash).
var errBadWALRecord = errors.New("ingest: malformed wal record")

// encodeAdmitRecord serializes a submission for the WAL. A submission
// decoded off the wire is logged as received: its profile envelope was
// CRC-verified and loaded by DecodeSubmit, and replay loads the same
// bytes through the same decoder, so the shard replay merges is the
// shard that merged live. A canonical body's base64 span is copied into
// the record as it came, with no re-encode, into dst's array (grown as
// needed; nil allocates); the record's bytes are the same either way.
// Only a Submission built in-process (no wire form) is encoded from its
// database.
func encodeAdmitRecord(dst []byte, sub Submission) ([]byte, error) {
	rec := record{Kind: walKindAdmit, Shard: sub.Shard, Profile: sub.wire}
	if len(sub.b64) > 0 {
		return appendRecord(slices.Grow(dst[:0], recordCap(rec, len(sub.b64))), rec, sub.b64), nil
	}
	var save func(io.Writer) error
	if sub.wire == nil {
		save = sub.DB.Save
	}
	return encodeRecord(rec, save)
}

// Submit encodes each admit record into a buffer from records and puts
// it back once the ledger has staged it: wal.Log.Stage keeps no
// reference to a payload. A buffer over maxPooledRecord bytes is left to
// the garbage collector.
const maxPooledRecord = 1 << 20

var records sync.Pool // *[]byte

func takeRecord() *[]byte {
	if p, ok := records.Get().(*[]byte); ok {
		return p
	}
	return new([]byte)
}

// putRecord pools rec, the buffer last encoded into p's (nil: no
// record was built).
func putRecord(p *[]byte, rec []byte) {
	if p != nil && cap(rec) <= maxPooledRecord {
		*p = rec[:0]
		records.Put(p)
	}
}

// decodeWALRecord parses one WAL record payload. Exactly one of sub or
// h is meaningful, selected by kind.
func decodeWALRecord(payload []byte) (kind string, sub Submission, h Handoff, err error) {
	rec, db, _, err := decodeRecord(payload, "", "wal record", errBadWALRecord)
	if err != nil {
		return "", Submission{}, Handoff{}, err
	}
	if rec.Kind == walKindAdmit {
		return rec.Kind, Submission{Shard: rec.Shard, DB: db}, Handoff{}, nil
	}
	return rec.Kind, Submission{}, Handoff{From: rec.From, DB: db, Shards: rec.Shards, Key: rec.Key}, nil
}

// recordHead is what replay's skip rules read of a record. Decoding it
// leaves the profile's base64 undecoded, which for a wide shard is most
// of what decoding the whole record costs.
type recordHead struct {
	Kind  string `json:"kind"`
	Shard string `json:"shard"`
	Key   string `json:"key"`
}

// decodeRecordHead reads a canonical admit record's head in one scan
// (scanCanonical; the profile span is left undecoded) and any other
// record with encoding/json.
func decodeRecordHead(payload []byte) (recordHead, error) {
	if shard, _, ok := scanCanonical(payload, admitHead); ok {
		return recordHead{Kind: walKindAdmit, Shard: string(shard)}, nil
	}
	var head recordHead
	if err := json.Unmarshal(payload, &head); err != nil {
		return head, fmt.Errorf("ingest: wal record envelope: %v: %w", err, errBadWALRecord)
	}
	return head, nil
}
