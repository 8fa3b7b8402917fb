package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

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
// On disk it is a frame envelope (DESIGN.md §7 "Framing") with its own
// magic, so a checkpoint can never be confused with a bare profile
// database, around a row table in the PMDB v2 style — varints, zigzag
// for the signed one, every list a count and then its rows in strictly
// ascending key order:
//
//	header   barrier seg uvarint | off zigzag
//	applied  count | rows: key
//	adopted  count | rows: key | donor len | donor
//	refused  count | rows: key | loss uvarint
//	handoffs count | rows: key (a WAL position)
//	keys     count | rows: key (a handoff digest) | captured uvarint
//	image    len u64 | the aggregate's PMDB envelope (len 0: none)
//
//	key      shared-prefix uvarint | suffix len uvarint | suffix
//
// A key stores only what differs from the row before it, so a campaign's
// sorted shard ids (narrow/r0003/s00012, narrow/r0003/s00013, …) take a
// few bytes each. It shares at most maxShared bytes, so what a reader
// allocates for the keys stays within 33 times the payload's size. The
// service writes nothing else, WAL or not (the barrier is zero without
// one), and version 2 is the one version read: any other is
// ErrVersionSkew. A bare PMDB — a pmsim -save file, or what a WAL-less
// collector wrote before its checkpoints carried the ledger — still
// loads, with an empty ledger.
const (
	ckptMagic   = "PMCK"
	ckptVersion = 2
	// ckptMaxBytes caps the declared payload: profile.LoadDB's cap plus
	// ledger headroom.
	ckptMaxBytes = 1<<28 + 1<<24
	// maxShared caps a key's shared prefix: a row of at least 2 bytes
	// decodes to at most maxShared bytes more than its suffix.
	maxShared     = 64
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
	// merge-failed with the loss accounted) when the snapshot was taken,
	// strictly ascending. Replay skips their admit records; a
	// queued-but-unresolved shard is deliberately absent so its record
	// replays.
	Applied []string
	// RefusedLoss maps shard ids under a standing refusal to the captured
	// samples standing in the aggregate's loss ledger.
	RefusedLoss map[string]uint64
	// HandoffFrom lists the shard ids admitted by handoff or adoption with
	// their donor (ledger provenance), strictly ascending by id.
	HandoffFrom []Provenance
	// AppliedHandoffs holds the WAL positions (Pos.String) of handoff
	// records already folded in; replay skips them.
	AppliedHandoffs []string
	// HandoffKeys maps applied handoff envelopes' content digests to the
	// captured total each acknowledged — the duplicate-delivery dedupe
	// ledger. A donor retrying a handoff after a lost ack (even across
	// this instance's restart) is answered with the original captured
	// count instead of double-merging.
	HandoffKeys map[string]uint64
	// Barrier is the WAL position this checkpoint covers: every record
	// below it is either in Applied/RefusedLoss/AppliedHandoffs or was
	// never acknowledged. Segments wholly below it are reclaimable.
	Barrier wal.Pos

	db *profile.DB // Profile decoded, set by LoadCheckpointFile
}

// Aggregate returns the aggregate LoadCheckpointFile decoded, nil when
// the checkpoint holds none.
func (ck *Checkpoint) Aggregate() *profile.DB { return ck.db }

// WriteCheckpoint writes ck as a PMCK envelope.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	rows, err := appendRows(nil, ck)
	if err != nil {
		return err
	}
	return writeRows(w, rows, ck.Profile)
}

// writeRows writes the envelope around a payload in two parts, the rows
// appendRows encoded and the image they declare, with no copy that
// joins them.
func writeRows(w io.Writer, rows, image []byte) error {
	if err := frame.WriteEnvelopeParts(w, ckptMagic, ckptVersion, rows, image); err != nil {
		return fmt.Errorf("ingest: checkpoint write: %w", err)
	}
	return nil
}

// appendRows appends the header, the ledger rows and the image length
// of ck to b. A list out of order is refused here rather than written
// as a file no reader accepts.
func appendRows(b []byte, ck *Checkpoint) ([]byte, error) {
	b = binary.AppendUvarint(b, ck.Barrier.Seg)
	b = binary.AppendVarint(b, ck.Barrier.Off)
	b = binary.AppendUvarint(b, uint64(len(ck.Applied)))
	var prev string
	for i, id := range ck.Applied {
		if i > 0 && id <= prev {
			return nil, fmt.Errorf("ingest: checkpoint write: applied ids not strictly ascending at %q", id)
		}
		b, prev = appendKey(b, prev, id), id
	}
	b, prev = binary.AppendUvarint(b, uint64(len(ck.HandoffFrom))), ""
	for i, p := range ck.HandoffFrom {
		if i > 0 && p.Shard <= prev {
			return nil, fmt.Errorf("ingest: checkpoint write: adopted ids not strictly ascending at %q", p.Shard)
		}
		b, prev = appendKey(b, prev, p.Shard), p.Shard
		b = append(binary.AppendUvarint(b, uint64(len(p.From))), p.From...)
	}
	b, prev = binary.AppendUvarint(b, uint64(len(ck.RefusedLoss))), ""
	for _, id := range sortedKeys(ck.RefusedLoss) {
		b, prev = binary.AppendUvarint(appendKey(b, prev, id), ck.RefusedLoss[id]), id
	}
	handoffs := slices.Clone(ck.AppliedHandoffs)
	slices.Sort(handoffs)
	handoffs = slices.Compact(handoffs)
	b, prev = binary.AppendUvarint(b, uint64(len(handoffs))), ""
	for _, pos := range handoffs {
		b, prev = appendKey(b, prev, pos), pos
	}
	b, prev = binary.AppendUvarint(b, uint64(len(ck.HandoffKeys))), ""
	for _, key := range sortedKeys(ck.HandoffKeys) {
		b, prev = binary.AppendUvarint(appendKey(b, prev, key), ck.HandoffKeys[key]), key
	}
	return binary.LittleEndian.AppendUint64(b, uint64(len(ck.Profile))), nil
}

// appendKey appends a row's key as the length of the prefix it shares
// with the previous row's key, prev, then the rest of it.
func appendKey(b []byte, prev, key string) []byte {
	n := 0
	for n < maxShared && n < len(prev) && n < len(key) && prev[n] == key[n] {
		n++
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(n)), uint64(len(key)-n))
	return append(b, key[n:]...)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ReadCheckpoint reads a PMCK envelope. Failures are typed with the
// framing taxonomy (profile.ErrCorrupt / ErrTruncated / ErrVersionSkew)
// so callers classify damage the same way everywhere.
// A returned checkpoint's Applied and HandoffFrom are strictly ascending.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	if err := frame.ReadHeader(r, ckptMagic, ckptVersion); err != nil {
		return nil, fmt.Errorf("ingest: checkpoint: %w", err)
	}
	payload, err := frame.ReadEnvelopeBody(r, ckptMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("ingest: checkpoint: %w", err)
	}
	ck, err := readRows(payload)
	if err != nil {
		return nil, fmt.Errorf("ingest: checkpoint decode: %w", err)
	}
	return ck, nil
}

// readRows decodes the payload with the one row decoder (frame.Rows):
// every count is checked against the bytes left before anything is
// allocated for it, every list must be strictly ascending, and nothing
// may follow the image.
func readRows(payload []byte) (*Checkpoint, error) {
	d := frame.NewRows(payload)
	ck := &Checkpoint{Barrier: wal.Pos{Seg: d.Uvarint(), Off: d.Varint()}}
	var key string
	var err error
	if n := d.Count(2); n > 0 {
		ck.Applied = make([]string, n)
	}
	for i := range ck.Applied {
		if key, err = readKey(&d, key, i); err != nil {
			return nil, fmt.Errorf("applied ids: %w", err)
		}
		ck.Applied[i] = key
	}
	if n := d.Count(3); n > 0 {
		ck.HandoffFrom = make([]Provenance, n)
	}
	for i := range ck.HandoffFrom {
		if key, err = readKey(&d, key, i); err != nil {
			return nil, fmt.Errorf("adopted ids: %w", err)
		}
		p := &ck.HandoffFrom[i]
		p.Shard, p.From = key, string(d.Take(d.Count(1)))
		if i > 0 && p.From == ck.HandoffFrom[i-1].From {
			p.From = ck.HandoffFrom[i-1].From // one string per donor
		}
	}
	n := d.Count(3)
	if n > 0 {
		ck.RefusedLoss = make(map[string]uint64, n)
	}
	for i := 0; i < n; i++ {
		if key, err = readKey(&d, key, i); err != nil {
			return nil, fmt.Errorf("refused ids: %w", err)
		}
		ck.RefusedLoss[key] = d.Uvarint()
	}
	if n := d.Count(2); n > 0 {
		ck.AppliedHandoffs = make([]string, n)
	}
	for i := range ck.AppliedHandoffs {
		if key, err = readKey(&d, key, i); err != nil {
			return nil, fmt.Errorf("applied handoffs: %w", err)
		}
		ck.AppliedHandoffs[i] = key
	}
	if n = d.Count(3); n > 0 {
		ck.HandoffKeys = make(map[string]uint64, n)
	}
	for i := 0; i < n; i++ {
		if key, err = readKey(&d, key, i); err != nil {
			return nil, fmt.Errorf("handoff keys: %w", err)
		}
		ck.HandoffKeys[key] = d.Uvarint()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Left() < 8 {
		return nil, fmt.Errorf("image length: %w", profile.ErrCorrupt)
	}
	switch size, left := binary.LittleEndian.Uint64(d.Take(8)), d.Left(); {
	case size > uint64(left):
		return nil, fmt.Errorf("declared image %d bytes in %d: %w", size, left, profile.ErrCorrupt)
	case size < uint64(left):
		return nil, fmt.Errorf("%d bytes after the image: %w", uint64(left)-size, profile.ErrCorrupt)
	case size > 0:
		ck.Profile = d.Take(left)
	}
	return ck, nil
}

// readKey reads the key that opens row i of a list, prev being the key
// of row i-1 ("" for the first row).
func readKey(d *frame.Rows, prev string, i int) (string, error) {
	shared, suffix := d.Uvarint(), d.Take(d.Count(1))
	if err := d.Err(); err != nil {
		return "", fmt.Errorf("row %d: %w", i, err)
	}
	if i == 0 {
		prev = ""
	}
	if shared > uint64(min(len(prev), maxShared)) {
		return "", fmt.Errorf("row %d: shared prefix %d longer than the previous key (%d bytes) or %d: %w",
			i, shared, len(prev), maxShared, profile.ErrCorrupt)
	}
	key := prev[:shared] + string(suffix)
	if i > 0 && key <= prev {
		return "", fmt.Errorf("row %d: keys not strictly ascending (%q after %q): %w", i, key, prev, profile.ErrCorrupt)
	}
	return key, nil
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
