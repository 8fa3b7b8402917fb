package profile

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

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
	// format version, including pre-envelope (naked gob) files.
	ErrVersionSkew = frame.ErrVersionSkew
)

// The on-disk format is a frame envelope (DESIGN.md §7 "Framing") around
// a row table: the DB header, then one row per accumulator in ascending
// PC order. Integers are varints — zigzag for the signed ones — and each
// PC is stored as its distance from the previous row's:
//
//	header  S f64 | W C TNear RetainAddrs zigzag | samples pairs lost
//	        corruptRejected uvarint | metrics uvarint, each len | bytes |
//	        rows uvarint
//	row     pc-delta | Samples | Events[11] | LatSum[5] zigzag | LatCount[5] |
//	        MemLatSum zigzag | MemLatCount | InProgressSum zigzag |
//	        InProgressCount | UsefulOverlap | PairSamples | RetiredNear |
//	        len | PairMetrics... | len | Addrs...
//
// It is the DCPI-style on-disk profile: counts and sums only, no raw
// samples. Custom pair-metric functions are not serializable; their names
// and counts survive, and a loaded database can be queried but
// accumulates further custom metrics only after the functions are
// re-registered via RestorePairMetrics. Version 1, a gob image, is still
// read (loadGob) and never written.
const (
	dbMagic      = "PMDB"
	dbVersion    = 2
	dbVersionGob = 1
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
	return db.save(w, db.sortedAccums())
}

// sortedAccums returns the accumulators in ascending PC order, the order
// the image lists them in.
func (db *DB) sortedAccums() []*PCAccum {
	pcs := db.PCs()
	accs := make([]*PCAccum, len(pcs))
	for i, pc := range pcs {
		accs[i] = db.byPC[pc]
	}
	return accs
}

// save is Save given sortedAccums, for a caller that keeps the list
// between saves of the same database (SafeDB). Each row is appended
// straight into the envelope's buffer, grown once first: a caller that
// keeps a saved image (a shard body, a trace record) keeps the buffer's
// spare capacity with it, which doubling growth would leave at up to
// the image's own size.
func (db *DB) save(w io.Writer, accs []*PCAccum) error {
	if err := frame.WriteEnvelope(w, dbMagic, dbVersion, func(p io.Writer) error {
		buf := p.(*bytes.Buffer)
		buf.Grow(256 + 40*len(accs)) // a row of small counts takes 32 bytes
		buf.Write(db.appendHead(buf.AvailableBuffer(), len(accs)))
		var prev uint64
		for _, a := range accs {
			buf.Write(appendRow(buf.AvailableBuffer(), a, a.PC-prev))
			prev = a.PC
		}
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
	b = binary.AppendUvarint(b, uint64(len(db.metricNames)))
	for _, name := range db.metricNames {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	return binary.AppendUvarint(b, uint64(rows))
}

// appendRow appends one accumulator's row, its PC given as delta.
func appendRow(b []byte, a *PCAccum, delta uint64) []byte {
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
	for _, list := range [2][]uint64{a.PairMetrics, a.Addrs} {
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, v := range list {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

// LoadDB reads a database written by Save, or by a version-1 Save.
// Any failure is typed: corrupt or truncated input and version skew
// (including pre-envelope naked-gob databases) return errors matching
// ErrCorrupt, ErrTruncated or ErrVersionSkew — never a panic, a garbage
// database, or an unbounded allocation. An image that lists a PC twice,
// a row whose pair metrics are not the database's metric set, and a row
// that keeps more addresses than the database retains are ErrCorrupt.
func LoadDB(r io.Reader) (*DB, error) {
	hdr, err := frame.ReadHeader(r, dbMagic, dbVersion)
	gobImage := errors.Is(err, ErrVersionSkew) && binary.LittleEndian.Uint32(hdr[4:8]) == dbVersionGob
	if err != nil && !gobImage {
		// Pre-envelope databases were naked gob streams. If a foreign
		// magic is the start of one, this is an old format, not damage.
		legacy := io.MultiReader(bytes.NewReader(hdr[:]), io.LimitReader(r, maxImageBytes))
		if errors.Is(err, ErrCorrupt) && gob.NewDecoder(legacy).Decode(new(dbImage)) == nil {
			return nil, fmt.Errorf("profile: load: unversioned pre-v%d database: %w",
				dbVersionGob, ErrVersionSkew)
		}
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	payload, err := frame.ReadEnvelopeBody(r, maxImageBytes)
	if err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	var db *DB
	if gobImage {
		db, err = loadGob(payload)
	} else {
		db, err = loadRows(payload)
	}
	if err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	return db, nil
}

// sane is the configuration check both readers apply to a loaded header.
func (db *DB) sane() error {
	if !(db.S >= 0) || db.W < 0 || db.C < 0 || db.RetainAddrs < 0 {
		return fmt.Errorf("impossible configuration: %w", ErrCorrupt)
	}
	return nil
}

// rowFits is the per-row check both readers apply: a row's pair metrics
// are the database's metric set or absent, and it keeps no more addresses
// than the database retains. mergeWalk indexes a row's pair metrics by
// the first row it met for that PC, so a row that breaks this would crash
// the merge that folds it.
func (db *DB) rowFits(pairMetrics, addrs int) bool {
	return (pairMetrics == 0 || pairMetrics == len(db.metricNames)) && addrs <= db.RetainAddrs
}

// loadRows decodes a version-2 payload with the one row decoder
// (frame.Rows). Every length is checked against the bytes left before
// anything is allocated for it, and all rows live in one slice that byPC
// points into and the database keeps as its PC order (DB.rows).
func loadRows(payload []byte) (*DB, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("header: %w", ErrCorrupt)
	}
	db := &DB{S: math.Float64frombits(binary.LittleEndian.Uint64(payload))}
	d := frame.NewRows(payload[8:])
	db.W, db.C, db.TNear, db.RetainAddrs = d.Int(), d.Int(), d.Varint(), d.Int()
	db.samples, db.pairs, db.lost, db.corruptRejected = d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if n := d.Count(1); n > 0 {
		db.metricNames = make([]string, n)
		db.metricFns = make([]OverlapFunc, n) // placeholders
		for i := range db.metricNames {
			db.metricNames[i] = string(d.Take(d.Count(1)))
		}
	}
	rows := d.Count(minRowBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := db.sane(); err != nil {
		return nil, err
	}
	accs := make([]PCAccum, rows)
	db.byPC = make(map[uint64]*PCAccum, rows)
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
		metrics := d.Count(1)
		if metrics > 0 {
			a.PairMetrics = d.Uvarints(metrics)
		}
		addrs := d.Count(1)
		if addrs > 0 {
			a.Addrs = d.Uvarints(addrs)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		if !db.rowFits(metrics, addrs) {
			return nil, fmt.Errorf("row %d (PC %#x): %d pair metrics, %d addresses: %w", i, pc, metrics, addrs, ErrCorrupt)
		}
		db.byPC[pc] = a
	}
	if d.Left() > 0 {
		return nil, fmt.Errorf("%d bytes after the last row: %w", d.Left(), ErrCorrupt)
	}
	db.rows = accs
	return db, nil
}

// dbImage is the version-1 image: a gob of the DB's header fields and a
// copy of every accumulator. It is decoded, never encoded, so that
// checkpoints, WAL records, traces and saved profiles written by a
// version-1 collector stay readable.
type dbImage struct {
	S           float64
	W, C        int
	TNear       int64
	RetainAddrs int
	Samples     uint64
	Pairs       uint64
	Lost        uint64
	CorruptRej  uint64
	MetricNames []string
	Accums      []PCAccum
}

// decodeGob decodes a version-1 payload. gob builds a slice over 10 MB in
// chunks and leaves slack capacity behind; a database keeps pointers
// into Accums for as long as it lives, so such a slice is copied to its
// exact length first.
func decodeGob(payload []byte) (*dbImage, error) {
	img := new(dbImage)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(img); err != nil {
		return nil, fmt.Errorf("decode: %v: %w", err, ErrCorrupt)
	}
	if cap(img.Accums) > len(img.Accums) {
		exact := make([]PCAccum, len(img.Accums))
		copy(exact, img.Accums)
		img.Accums = exact
	}
	return img, nil
}

// loadGob decodes a version-1 payload under the same checks as loadRows.
func loadGob(payload []byte) (*DB, error) {
	img, err := decodeGob(payload)
	if err != nil {
		return nil, err
	}
	db := &DB{
		S: img.S, W: img.W, C: img.C, TNear: img.TNear, RetainAddrs: img.RetainAddrs,
		samples: img.Samples, pairs: img.Pairs,
		lost: img.Lost, corruptRejected: img.CorruptRej,
		metricNames: img.MetricNames,
		metricFns:   make([]OverlapFunc, len(img.MetricNames)), // placeholders
		byPC:        make(map[uint64]*PCAccum, len(img.Accums)),
	}
	if err := db.sane(); err != nil {
		return nil, err
	}
	for i := range img.Accums {
		a := &img.Accums[i]
		if !db.rowFits(len(a.PairMetrics), len(a.Addrs)) {
			return nil, fmt.Errorf("PC %#x: %d pair metrics, %d addresses: %w",
				a.PC, len(a.PairMetrics), len(a.Addrs), ErrCorrupt)
		}
		db.byPC[a.PC] = a
	}
	if len(db.byPC) != len(img.Accums) {
		return nil, fmt.Errorf("%d accumulators for %d distinct PCs: %w",
			len(img.Accums), len(db.byPC), ErrCorrupt)
	}
	return db, nil
}

// RestorePairMetrics re-binds custom metric functions after LoadDB; names
// must match the registered order exactly.
func (db *DB) RestorePairMetrics(fns map[string]OverlapFunc) error {
	for i, name := range db.metricNames {
		f, ok := fns[name]
		if !ok {
			return fmt.Errorf("profile: no function for metric %q", name)
		}
		db.metricFns[i] = f
	}
	return nil
}

// Merge folds other into db (multi-run aggregation; both databases must
// share the sampling configuration and metric registrations).
func (db *DB) Merge(other *DB) error {
	if err := db.mergeable(other); err != nil {
		return err
	}
	db.mergeWalk(other, nil)
	return nil
}

// mergeable is the screen every merge passes before it touches anything:
// a distinct database with the same sampling configuration and metric
// registrations.
func (db *DB) mergeable(other *DB) error {
	if db == other {
		// Iterating other.byPC while acc() mutates the same map is
		// undefined; a fleet bug that hands the aggregate to itself must
		// fail loudly, not double-count or corrupt the map.
		return fmt.Errorf("profile: merge: cannot merge a database into itself")
	}
	if db.S != other.S || db.W != other.W || db.C != other.C || db.TNear != other.TNear {
		return fmt.Errorf("profile: merge: configurations differ")
	}
	if len(db.metricNames) != len(other.metricNames) {
		return fmt.Errorf("profile: merge: metric sets differ")
	}
	for i := range db.metricNames {
		if db.metricNames[i] != other.metricNames[i] {
			return fmt.Errorf("profile: merge: metric %d differs (%q vs %q)",
				i, db.metricNames[i], other.metricNames[i])
		}
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
// every time; db's own sums do not, so an unvisited walk takes the map's
// order and never sorts.
func (db *DB) mergeWalk(other *DB, visit func(delta *PCAccum)) {
	db.samples += other.samples
	db.pairs += other.pairs
	db.lost += other.lost
	db.corruptRejected += other.corruptRejected
	if visit == nil {
		for pc, src := range other.byPC {
			// The PC comes from the map's key, not from src, so the
			// lookup of dst need not wait for src to arrive from memory.
			db.fold(db.acc(pc), src)
		}
		return
	}
	other.eachAscending(func(src *PCAccum) {
		db.fold(db.acc(src.PC), src)
		visit(src)
	})
}

// fold adds src, another database's accumulator, into dst, db's
// accumulator for the same PC.
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
	if room := db.RetainAddrs - len(dst.Addrs); room > 0 && len(src.Addrs) > 0 {
		// Copy before appending: the slice must not share the source
		// database's backing array, or mutating one profile after a
		// merge would silently rewrite the other.
		take := src.Addrs
		if len(take) > room {
			take = take[:room]
		}
		buf := make([]uint64, len(take))
		copy(buf, take)
		dst.Addrs = append(dst.Addrs, buf...)
	}
	if len(src.PairMetrics) > 0 {
		if dst.PairMetrics == nil {
			dst.PairMetrics = make([]uint64, len(src.PairMetrics))
		}
		for i := range src.PairMetrics {
			dst.PairMetrics[i] += src.PairMetrics[i]
		}
	}
}

// eachAscending calls f on every accumulator in ascending PC order. A
// database loaded from a version-2 image walks the image's row slice for
// as long as it holds no PC the image lacked — a DB only ever gains PCs,
// so equal lengths mean the same set; any other database sorts its PCs.
func (db *DB) eachAscending(f func(*PCAccum)) {
	if len(db.rows) == len(db.byPC) {
		for i := range db.rows {
			f(&db.rows[i])
		}
		return
	}
	for _, a := range db.sortedAccums() {
		f(a)
	}
}
