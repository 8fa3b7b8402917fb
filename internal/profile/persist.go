package profile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"profileme/internal/frame"
)

// Typed persistence failures: the repository-wide framing taxonomy
// (internal/frame), under the names callers of this package have always
// classified with. LoadDB wraps every failure in exactly one of these,
// so callers can distinguish a damaged file from a stale format with
// errors.Is and react (retry, re-collect, run a migration) instead of
// parsing message text.
var (
	// ErrCorrupt: the bytes are not a profile database — bad magic,
	// checksum mismatch, or an undecodable payload.
	ErrCorrupt = frame.ErrCorrupt
	// ErrTruncated: the stream ended before the envelope said it would
	// (interrupted Save, partial copy).
	ErrTruncated = frame.ErrTruncated
	// ErrVersionSkew: a well-formed database written by a different
	// format version.
	ErrVersionSkew = frame.ErrVersionSkew
)

// The on-disk format is a frame envelope (DESIGN.md §7 "Framing") around
// a row table: the DB header, then one row per accumulator in ascending
// PC order. Integers are varints — zigzag for the signed ones — and each
// PC is stored as its distance from the previous row's:
//
//	header  S f64 | W C TNear RetainAddrs zigzag | samples pairs lost
//	        corruptRejected uvarint | 0 | rows uvarint
//	row     pc-delta | Samples | Events[11] | LatSum[5] zigzag | LatCount[5] |
//	        MemLatSum zigzag | MemLatCount | InProgressSum zigzag |
//	        InProgressCount | UsefulOverlap | PairSamples | RetiredNear |
//	        0 | len | Addrs...
//
// It is the DCPI-style on-disk profile: counts and sums only, no raw
// samples. The two 0s are a pair-metric name count and a per-row
// pair-metric length that no writer has ever made non-zero; a reader
// refuses a non-zero one as ErrCorrupt. Version 2 is the one version
// read and written: an image of any other version is ErrVersionSkew.
const (
	dbMagic   = "PMDB"
	dbVersion = 2
	// maxImageBytes caps the declared payload (a compact per-PC image is
	// megabytes, not gigabytes).
	maxImageBytes = 1 << 28
	// minRowBytes is the smallest row: one byte for each of its 32
	// fields. A declared row count is checked against it before the rows
	// are allocated.
	minRowBytes = 32
)

// Save writes the database as a versioned, checksummed envelope.
func (db *DB) Save(w io.Writer) error {
	return db.save(w, db.ascendingSlots())
}

// save is Save given ascendingSlots, for a caller that keeps the list
// between saves of the same database (SafeDB). Each row is
// appended straight into the envelope's buffer, grown once first: a
// caller that keeps a saved image (a shard body, a trace record) keeps
// the buffer's spare capacity with it, which doubling growth would leave
// at up to the image's own size.
func (db *DB) save(w io.Writer, order []int32) error {
	if err := frame.WriteEnvelope(w, dbMagic, dbVersion, func(p io.Writer) error {
		buf := p.(*bytes.Buffer)
		buf.Grow(256 + 40*db.n) // a row of small counts takes 32 bytes
		buf.Write(db.appendHead(buf.AvailableBuffer(), db.n))
		var prev uint64
		db.eachInOrder(order, func(slot int32, a *PCAccum) {
			buf.Write(appendRow(buf.AvailableBuffer(), a, a.PC-prev, db.addrsAt(slot)))
			prev = a.PC
		})
		return nil
	}); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// appendHead appends the image header for a database of rows rows.
func (db *DB) appendHead(b []byte, rows int) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(db.S))
	for _, v := range []int64{int64(db.W), int64(db.C), db.TNear, int64(db.RetainAddrs)} {
		b = binary.AppendVarint(b, v)
	}
	for _, v := range []uint64{db.samples, db.pairs, db.lost, db.corruptRejected} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, 0) // no pair-metric names
	return binary.AppendUvarint(b, uint64(rows))
}

// appendRow appends one accumulator's row, its PC given as delta, with
// the addresses the database kept for it.
func appendRow(b []byte, a *PCAccum, delta uint64, addrs []uint64) []byte {
	b = binary.AppendUvarint(b, delta)
	b = binary.AppendUvarint(b, a.Samples)
	// Indexed, not ranged by value: a range over an array field copies
	// the array first.
	for i := range a.Events {
		b = binary.AppendUvarint(b, a.Events[i])
	}
	for i := range a.LatSum {
		b = binary.AppendVarint(b, a.LatSum[i])
	}
	for i := range a.LatCount {
		b = binary.AppendUvarint(b, a.LatCount[i])
	}
	b = binary.AppendVarint(b, a.MemLatSum)
	b = binary.AppendUvarint(b, a.MemLatCount)
	b = binary.AppendVarint(b, a.InProgressSum)
	b = binary.AppendUvarint(b, a.InProgressCount)
	b = binary.AppendUvarint(b, a.UsefulOverlap)
	b = binary.AppendUvarint(b, a.PairSamples)
	b = binary.AppendUvarint(b, a.RetiredNear)
	b = append(b, 0) // no pair metrics
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, v := range addrs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// LoadDB reads a database written by Save. Any failure is typed:
// corrupt or truncated input and version skew return errors matching
// ErrCorrupt, ErrTruncated or ErrVersionSkew — never a panic, a garbage
// database, or an unbounded allocation. An image that lists a PC twice,
// names a pair metric, or has a row with pair metrics or with more
// addresses than the database retains is ErrCorrupt.
func LoadDB(r io.Reader) (*DB, error) {
	if err := frame.ReadHeader(r, dbMagic, dbVersion); err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	payload, err := frame.ReadEnvelopeBody(r, maxImageBytes)
	if err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	db, err := loadRows(payload)
	if err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	return db, nil
}

// A decoded shard's rows and PC index are one slab, taken from a pool:
// SafeDB.Merge consumes the shard and hands its slab back (DB.recycle),
// so a collector that decodes and merges shard after shard reuses the
// same memory instead of leaving it to the garbage collector. A slab of
// more than maxPooledRows rows (a checkpoint image the size of the
// aggregate) is never pooled. Databases built in process have no slab.
const maxPooledRows = 1 << 13

// rowSlab is a decoded database's storage as the pool holds it: its
// rows and its PC index's table.
type rowSlab struct {
	rows  []PCAccum
	index []uint32
}

var slabs sync.Pool // *rowSlab

// takeSlab returns n <= maxPooledRows rows and a zeroed index table of
// indexSize(n) entries. A recycled slab's rows still hold its last
// shard's values: the caller writes every field of every row.
func takeSlab(n int) ([]PCAccum, []uint32) {
	var sl rowSlab
	if p, ok := slabs.Get().(*rowSlab); ok {
		sl = *p
	}
	size := indexSize(n)
	if cap(sl.rows) < n {
		sl.rows = make([]PCAccum, n)
	}
	if cap(sl.index) < size {
		sl.index = make([]uint32, size)
	}
	index := sl.index[:size]
	clear(index)
	return sl.rows[:n], index
}

// recycle hands a decoded database's rows and index back to the pool.
// The database keeps its totals but no rows, and a merge refuses it from
// then on. The slab's header is allocated here, not in LoadDB, so a
// decode that is never merged allocates no more than it did unpooled.
func (db *DB) recycle() {
	if !db.pooled {
		return
	}
	slabs.Put(&rowSlab{rows: db.base, index: db.index})
	db.pooled, db.consumed = false, true
	db.base, db.chunks, db.n, db.index, db.addrs = nil, nil, 0, nil, nil
}

// rowFits is loadRows's per-row check: a row has no pair metrics and
// keeps no more addresses than the database retains.
func (db *DB) rowFits(pairMetrics, addrs int) bool {
	return pairMetrics == 0 && addrs <= db.RetainAddrs
}

// loadRows decodes the payload with the one row decoder (frame.Rows).
// Every length is checked against the bytes left before anything is
// allocated for it, and all rows live in one exact-size slice, the
// database's base slab, in the image's ascending PC order — a pooled
// slab's unless the image has more than maxPooledRows rows. The PC
// index is entered once the rows are in.
func loadRows(payload []byte) (*DB, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("header: %w", ErrCorrupt)
	}
	db := &DB{S: math.Float64frombits(binary.LittleEndian.Uint64(payload))}
	d := frame.NewRows(payload[8:])
	db.W, db.C, db.TNear, db.RetainAddrs = d.Int(), d.Int(), d.Varint(), d.Int()
	db.samples, db.pairs, db.lost, db.corruptRejected = d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if n := d.Uvarint(); n != 0 {
		return nil, fmt.Errorf("%d pair-metric names: %w", n, ErrCorrupt)
	}
	rows := d.Count(minRowBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !(db.S >= 0) || db.W < 0 || db.C < 0 || db.RetainAddrs < 0 {
		return nil, fmt.Errorf("impossible configuration: %w", ErrCorrupt)
	}
	var accs []PCAccum
	var index []uint32
	if db.pooled = rows <= maxPooledRows; db.pooled {
		accs, index = takeSlab(rows)
	} else {
		accs, index = make([]PCAccum, rows), make([]uint32, indexSize(rows))
	}
	db.base, db.n = accs, rows
	var pc uint64
	for i := range accs {
		a := &accs[i]
		delta := d.Uvarint()
		if i > 0 && (delta == 0 || pc+delta < pc) {
			return nil, fmt.Errorf("row %d: PCs not strictly ascending: %w", i, ErrCorrupt)
		}
		pc += delta
		a.PC = pc
		a.Samples = d.Uvarint()
		for j := range a.Events {
			a.Events[j] = d.Uvarint()
		}
		for j := range a.LatSum {
			a.LatSum[j] = d.Varint()
		}
		for j := range a.LatCount {
			a.LatCount[j] = d.Uvarint()
		}
		a.MemLatSum, a.MemLatCount = d.Varint(), d.Uvarint()
		a.InProgressSum, a.InProgressCount = d.Varint(), d.Uvarint()
		a.UsefulOverlap, a.PairSamples, a.RetiredNear = d.Uvarint(), d.Uvarint(), d.Uvarint()
		metrics, addrs := d.Count(1), d.Count(1)
		if !db.rowFits(metrics, addrs) {
			return nil, fmt.Errorf("row %d (PC %#x): %d pair metrics, %d addresses: %w", i, pc, metrics, addrs, ErrCorrupt)
		}
		if addrs > 0 {
			if db.addrs == nil {
				db.addrs = make([][]uint64, rows)
			}
			db.addrs[i] = d.Uvarints(addrs)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if d.Left() > 0 {
		return nil, fmt.Errorf("%d bytes after the last row: %w", d.Left(), ErrCorrupt)
	}
	db.setIndex(index)
	return db, nil
}

// Merge folds other into db (multi-run aggregation; both databases must
// share the sampling configuration).
func (db *DB) Merge(other *DB) error {
	if err := db.mergeable(other); err != nil {
		return err
	}
	db.mergeWalk(other, nil)
	return nil
}

// mergeable is the screen every merge passes before it touches anything:
// a distinct database with the same sampling configuration.
func (db *DB) mergeable(other *DB) error {
	if db == other {
		// Walking other's rows while slotOf adds to the same table
		// would fold rows into themselves; a fleet bug that hands the
		// aggregate to itself must fail loudly, not double-count.
		return fmt.Errorf("profile: merge: cannot merge a database into itself")
	}
	if other.consumed {
		return fmt.Errorf("profile: merge: the database was already consumed by a SafeDB merge")
	}
	if db.S != other.S || db.W != other.W || db.C != other.C || db.TNear != other.TNear {
		return fmt.Errorf("profile: merge: configurations differ")
	}
	return nil
}

// mergeWalk is the one merge loop, run after mergeable: it adds other's
// totals to db and folds each of other's accumulators into db's. When
// visit is non-nil it is handed each of other's accumulators (the
// shard's per-PC delta) as it is folded, so summaries kept beside the
// database (SafeDB's sketches and window ring) update in the same pass.
// Those summaries depend on the order they see PCs in, so a visited walk
// goes in ascending PC order (eachAscending) and ends in the same state
// every time; db's own sums do not, so an unvisited walk takes the slot
// order and never sorts.
func (db *DB) mergeWalk(other *DB, visit func(delta *PCAccum)) {
	db.samples += other.samples
	db.pairs += other.pairs
	db.lost += other.lost
	db.corruptRejected += other.corruptRejected
	merge := func(slot int32, src *PCAccum) {
		dst, a := db.slotOf(src.PC)
		db.fold(a, src)
		if addrs := other.addrsAt(slot); len(addrs) > 0 {
			db.keepAddrs(dst, addrs...)
		}
	}
	if visit == nil {
		other.each(merge)
		return
	}
	other.eachAscending(func(slot int32, src *PCAccum) {
		merge(slot, src)
		visit(src)
	})
}

// fold adds src, another database's accumulator, into dst, db's
// accumulator for the same PC. The addresses are mergeWalk's: they are
// beside the rows.
func (db *DB) fold(dst, src *PCAccum) {
	dst.Samples += src.Samples
	for i := range dst.Events {
		dst.Events[i] += src.Events[i]
	}
	for i := range dst.LatSum {
		dst.LatSum[i] += src.LatSum[i]
		dst.LatCount[i] += src.LatCount[i]
	}
	dst.MemLatSum += src.MemLatSum
	dst.MemLatCount += src.MemLatCount
	dst.InProgressSum += src.InProgressSum
	dst.InProgressCount += src.InProgressCount
	dst.UsefulOverlap += src.UsefulOverlap
	dst.PairSamples += src.PairSamples
	dst.RetiredNear += src.RetiredNear
}

// eachAscending calls f on every accumulator in ascending PC order: in
// slot order while the PCs arrived ascending (a decoded image that
// gained no lower PC, say), else in a sorted slot order.
func (db *DB) eachAscending(f func(slot int32, a *PCAccum)) {
	db.eachInOrder(db.ascendingSlots(), f)
}

// eachInOrder calls f on every accumulator in the slot order given, or
// in slot order when order is nil.
func (db *DB) eachInOrder(order []int32, f func(slot int32, a *PCAccum)) {
	if order == nil {
		db.each(f)
		return
	}
	for _, slot := range order {
		f(slot, db.row(slot))
	}
}
