package profile

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Typed persistence failures. LoadDB wraps every failure in exactly one of
// these, so callers can distinguish a damaged file from a stale format
// with errors.Is and react (retry, re-collect, run a migration) instead of
// parsing message text.
var (
	// ErrCorrupt: the bytes are not a profile database — bad magic,
	// checksum mismatch, or an undecodable payload.
	ErrCorrupt = errors.New("profile: database corrupt")
	// ErrTruncated: the stream ended before the envelope said it would
	// (interrupted Save, partial copy).
	ErrTruncated = errors.New("profile: database truncated")
	// ErrVersionSkew: a well-formed database written by a different
	// format version, including pre-envelope (naked gob) files.
	ErrVersionSkew = errors.New("profile: database version skew")
)

// The on-disk envelope: magic, format version, payload length, gob
// payload, CRC32-C of the payload. The checksum turns silent bit rot and
// truncation into typed load errors instead of garbage decodes.
const (
	dbMagic   = "PMDB"
	dbVersion = 1
	// maxImageBytes caps the declared payload so a forged length field
	// cannot drive allocation (a compact per-PC image is megabytes, not
	// gigabytes).
	maxImageBytes = 1 << 28
	headerBytes   = 16 // magic[4] + version u32 + payload length u64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
	img := dbImage{
		S: db.S, W: db.W, C: db.C, TNear: db.TNear, RetainAddrs: db.RetainAddrs,
		Samples: db.samples, Pairs: db.pairs,
		Lost: db.lost, CorruptRej: db.corruptRejected,
		MetricNames: db.metricNames,
	}
	pcs := db.PCs()
	img.Accums = make([]PCAccum, 0, len(pcs))
	for _, pc := range pcs {
		img.Accums = append(img.Accums, *db.byPC[pc])
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	var hdr [headerBytes]byte
	copy(hdr[0:4], dbMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], dbVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), crcTable))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// LoadDB reads a database written by Save. Any failure is typed: corrupt
// or truncated input and version skew (including pre-envelope naked-gob
// databases) return errors matching ErrCorrupt, ErrTruncated or
// ErrVersionSkew — never a panic, a garbage database, or an unbounded
// allocation.
func LoadDB(r io.Reader) (*DB, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("profile: load: header: %w", ErrTruncated)
	}
	if string(hdr[0:4]) != dbMagic {
		// Pre-envelope databases were naked gob streams. If the bytes
		// decode as one, this is an old format, not damage.
		legacy := io.MultiReader(bytes.NewReader(hdr[:]), io.LimitReader(r, maxImageBytes))
		var img dbImage
		if gob.NewDecoder(legacy).Decode(&img) == nil {
			return nil, fmt.Errorf("profile: load: unversioned pre-v%d database: %w",
				dbVersion, ErrVersionSkew)
		}
		return nil, fmt.Errorf("profile: load: bad magic: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != dbVersion {
		return nil, fmt.Errorf("profile: load: format v%d, this build reads v%d: %w",
			v, dbVersion, ErrVersionSkew)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxImageBytes {
		return nil, fmt.Errorf("profile: load: declared payload %d exceeds %d: %w",
			n, maxImageBytes, ErrCorrupt)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("profile: load: payload: %w", ErrTruncated)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("profile: load: checksum: %w", ErrTruncated)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("profile: load: checksum %08x != %08x: %w", got, want, ErrCorrupt)
	}
	var img dbImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, fmt.Errorf("profile: load: decode: %v: %w", err, ErrCorrupt)
	}
	if !(img.S >= 0) || img.W < 0 || img.C < 0 || img.RetainAddrs < 0 {
		return nil, fmt.Errorf("profile: load: impossible configuration: %w", ErrCorrupt)
	}
	db := NewDB(img.S, img.W, img.C)
	db.TNear = img.TNear
	db.RetainAddrs = img.RetainAddrs
	db.samples = img.Samples
	db.pairs = img.Pairs
	db.lost = img.Lost
	db.corruptRejected = img.CorruptRej
	db.metricNames = img.MetricNames
	db.metricFns = make([]OverlapFunc, len(img.MetricNames)) // placeholders
	for i := range img.Accums {
		a := img.Accums[i]
		db.byPC[a.PC] = &a
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
	}
	return nil
}
