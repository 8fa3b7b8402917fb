package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

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
// a gob payload.
const (
	dbMagic   = "PMDB"
	dbVersion = 1
	// maxImageBytes caps the declared payload (a compact per-PC image is
	// megabytes, not gigabytes).
	maxImageBytes = 1 << 28
)

// dbImage is the serialized form of a DB (the DCPI-style on-disk profile:
// counts and sums only, no raw samples). Custom pair-metric functions are
// not serializable; their names and counts survive, and a loaded database
// can be queried but accumulates further custom metrics only after the
// functions are re-registered via RestorePairMetrics.
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
// between saves of the same database (SafeDB). gob encodes the image
// straight into the envelope — in place when w is a bytes.Buffer (a
// checkpoint image, a wire body).
func (db *DB) save(w io.Writer, accs []*PCAccum) error {
	img := dbImage{
		S: db.S, W: db.W, C: db.C, TNear: db.TNear, RetainAddrs: db.RetainAddrs,
		Samples: db.samples, Pairs: db.pairs,
		Lost: db.lost, CorruptRej: db.corruptRejected,
		MetricNames: db.metricNames,
		Accums:      make([]PCAccum, len(accs)),
	}
	for i, a := range accs {
		img.Accums[i] = *a
	}
	if err := frame.WriteEnvelope(w, dbMagic, dbVersion, func(p io.Writer) error {
		return gob.NewEncoder(p).Encode(&img)
	}); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// LoadDB reads a database written by Save. Any failure is typed: corrupt
// or truncated input and version skew (including pre-envelope naked-gob
// databases) return errors matching ErrCorrupt, ErrTruncated or
// ErrVersionSkew — never a panic, a garbage database, or an unbounded
// allocation. An image that lists a PC twice is ErrCorrupt.
func LoadDB(r io.Reader) (*DB, error) {
	hdr, err := frame.ReadHeader(r, dbMagic, dbVersion)
	if err != nil {
		// Pre-envelope databases were naked gob streams. If a foreign
		// magic is the start of one, this is an old format, not damage.
		legacy := io.MultiReader(bytes.NewReader(hdr[:]), io.LimitReader(r, maxImageBytes))
		if errors.Is(err, ErrCorrupt) && gob.NewDecoder(legacy).Decode(new(dbImage)) == nil {
			return nil, fmt.Errorf("profile: load: unversioned pre-v%d database: %w",
				dbVersion, ErrVersionSkew)
		}
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	payload, err := frame.ReadEnvelopeBody(r, maxImageBytes)
	if err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	img, err := decodeImage(payload)
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
	// The accumulators stay where gob decoded them: byPC points into
	// img.Accums, one allocation for the whole image.
	for i := range img.Accums {
		db.byPC[img.Accums[i].PC] = &img.Accums[i]
	}
	if len(db.byPC) != len(img.Accums) {
		return nil, fmt.Errorf("profile: load: %d accumulators for %d distinct PCs: %w",
			len(img.Accums), len(db.byPC), ErrCorrupt)
	}
	return db, nil
}

// decodeImage decodes and sanity-checks an envelope's payload. gob builds
// a slice over 10 MB in chunks and leaves slack capacity behind; the
// database keeps pointers into Accums for as long as it lives, so such a
// slice is copied to its exact length first.
func decodeImage(payload []byte) (*dbImage, error) {
	img := new(dbImage)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(img); err != nil {
		return nil, fmt.Errorf("profile: load: decode: %v: %w", err, ErrCorrupt)
	}
	if !(img.S >= 0) || img.W < 0 || img.C < 0 || img.RetainAddrs < 0 {
		return nil, fmt.Errorf("profile: load: impossible configuration: %w", ErrCorrupt)
	}
	if cap(img.Accums) > len(img.Accums) {
		exact := make([]PCAccum, len(img.Accums))
		copy(exact, img.Accums)
		img.Accums = exact
	}
	return img, nil
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
func (db *DB) mergeWalk(other *DB, visit func(delta *PCAccum)) {
	db.samples += other.samples
	db.pairs += other.pairs
	db.lost += other.lost
	db.corruptRejected += other.corruptRejected
	for pc, src := range other.byPC {
		dst := db.acc(pc)
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
		if visit != nil {
			visit(src)
		}
	}
}
