package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"profileme/internal/frame"
	"profileme/internal/profile"
	"profileme/internal/wal"
)

// A checkpoint is the WAL's barrier: everything the service knew at one
// instant — the aggregate image AND the admission ledger — in a single
// atomic file. Restart is checkpoint + WAL tail: replay skips records
// the ledger already covers and re-applies the rest, so the 202 sent
// after a WAL fsync survives a crash at any instruction.
//
// On disk it is a frame envelope (DESIGN.md §7 "Framing") around a gob
// payload, with its own magic so a checkpoint can never be confused with
// a bare profile database. The service writes nothing else, WAL or not
// (the barrier is zero without one). A bare PMDB — a pmsim -save file, or
// what a WAL-less collector wrote before its checkpoints carried the
// ledger — still loads, with an empty ledger.
const (
	ckptMagic   = "PMCK"
	ckptVersion = 1
	// ckptMaxBytes caps the declared payload: profile.LoadDB's cap plus
	// ledger headroom.
	ckptMaxBytes  = 1<<28 + 1<<24
	bareDBMagic   = "PMDB"
	corruptSuffix = ".corrupt"
)

// Checkpoint is the durable snapshot: the aggregate (a profile.Save
// image, CRC-protected on its own) plus the admission ledger and the
// WAL barrier position at snapshot time.
type Checkpoint struct {
	// Profile is the aggregate's profile.Save bytes (nil/empty when the
	// aggregate was empty and unconfigured — never written in practice).
	Profile []byte
	// Applied lists shard ids the aggregator had RESOLVED (merged, or
	// merge-failed with the loss accounted) when the snapshot was taken.
	// Replay skips their admit records; a queued-but-unresolved shard is
	// deliberately absent so its record replays.
	Applied []string
	// RefusedLoss maps shard ids under a standing refusal to the captured
	// samples standing in the aggregate's loss ledger.
	RefusedLoss map[string]uint64
	// HandoffFrom maps shard ids admitted by handoff or adoption to their
	// donor (ledger provenance).
	HandoffFrom map[string]string
	// AppliedHandoffs holds the WAL positions (Pos.String) of handoff
	// records already folded in; replay skips them.
	AppliedHandoffs []string
	// HandoffKeys maps applied handoff envelopes' content digests to the
	// captured total each acknowledged — the duplicate-delivery dedupe
	// ledger. A donor retrying a handoff after a lost ack (even across
	// this instance's restart) is answered with the original captured
	// count instead of double-merging. Absent in old checkpoints (gob
	// decodes it nil), which only forfeits dedupe for pre-upgrade
	// envelopes.
	HandoffKeys map[string]uint64
	// Barrier is the WAL position this checkpoint covers: every record
	// below it is either in Applied/RefusedLoss/AppliedHandoffs or was
	// never acknowledged. Segments wholly below it are reclaimable.
	Barrier wal.Pos

	db *profile.DB // Profile decoded, set by LoadCheckpointFile (gob skips it)
}

// Aggregate returns the aggregate LoadCheckpointFile decoded, nil when
// the checkpoint holds none.
func (ck *Checkpoint) Aggregate() *profile.DB { return ck.db }

// WriteCheckpoint writes ck as a PMCK envelope.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if err := frame.WriteEnvelope(w, ckptMagic, ckptVersion, func(p io.Writer) error {
		return gob.NewEncoder(p).Encode(ck)
	}); err != nil {
		return fmt.Errorf("ingest: checkpoint write: %w", err)
	}
	return nil
}

// ReadCheckpoint reads a PMCK envelope. Failures are typed with the
// framing taxonomy (profile.ErrCorrupt / ErrTruncated / ErrVersionSkew)
// so callers classify damage the same way everywhere.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, err := frame.ReadEnvelope(r, ckptMagic, ckptVersion, ckptMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("ingest: checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("ingest: checkpoint decode: %v: %w", err, profile.ErrCorrupt)
	}
	return &ck, nil
}

// LoadCheckpointFile loads a checkpoint from disk, accepting both the
// PMCK envelope and a bare profile database, which loads with an empty
// ledger. The aggregate is decoded here, once, so damage surfaces typed
// and Recover has its seed.
// A missing file returns (nil, nil): a fresh start, not an error.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: load checkpoint: %w", err)
	}
	if len(raw) >= 4 && string(raw[0:4]) == bareDBMagic {
		db, err := profile.LoadDB(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("ingest: load %s: %w", path, err)
		}
		return &Checkpoint{Profile: raw, db: db}, nil
	}
	ck, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("ingest: load checkpoint %s: %w", path, err)
	}
	if len(ck.Profile) > 0 {
		// The envelope's CRC passed, so a bad image inside it is not disk
		// damage to set aside: untyped, it stops the boot.
		if ck.db, err = profile.LoadDB(bytes.NewReader(ck.Profile)); err != nil {
			return nil, fmt.Errorf("ingest: load checkpoint %s: aggregate: %v", path, err)
		}
	}
	return ck, nil
}

// quarantineCheckpoint renames a damaged checkpoint aside (path +
// ".corrupt") so a restart proceeds empty instead of crash-looping,
// keeping the bytes for forensics.
func quarantineCheckpoint(path string) error {
	return os.Rename(path, path+corruptSuffix)
}
