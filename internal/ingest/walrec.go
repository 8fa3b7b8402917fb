package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// shard that merged live. Only a Submission built in-process (no wire
// form) is encoded here.
func encodeAdmitRecord(sub Submission) ([]byte, error) {
	var save func(io.Writer) error
	if sub.wire == nil {
		save = sub.DB.Save
	}
	return encodeRecord(record{Kind: walKindAdmit, Shard: sub.Shard, Profile: sub.wire}, save)
}

// decodeWALRecord parses one WAL record payload. Exactly one of sub or
// h is meaningful, selected by kind.
func decodeWALRecord(payload []byte) (kind string, sub Submission, h Handoff, err error) {
	rec, db, err := decodeRecord(payload, "", "wal record", errBadWALRecord)
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

func decodeRecordHead(payload []byte) (recordHead, error) {
	var head recordHead
	if err := json.Unmarshal(payload, &head); err != nil {
		return head, fmt.Errorf("ingest: wal record envelope: %v: %w", err, errBadWALRecord)
	}
	return head, nil
}
