package traffic

import (
	"encoding/json"
	"fmt"
	"io"

	"profileme/internal/frame"
)

// The trace file is built from internal/frame's pieces (DESIGN.md §7
// "Framing"): a "PMTF" header, one checksummed block of meta JSON, then
// stream records of record JSON. Decode failures are frame's ErrCorrupt /
// ErrTruncated / ErrVersionSkew.
//
// The meta block carries the generating Spec (nil for live captures), so
// a trace is self-describing: describe/replay need no side files. A
// clean end of file falls exactly on a record boundary; anything else —
// a torn tail from a crashed recorder — reads back as frame.ErrTruncated
// after every complete record has been delivered, never as a panic or a
// garbage record.
const (
	traceMagic   = "PMTF"
	traceVersion = 1
	// maxMetaBytes / maxRecordBytes cap declared lengths (a submission
	// is bounded by the collector's 8 MiB body cap; 64 MiB leaves
	// headroom).
	maxMetaBytes   = 1 << 20
	maxRecordBytes = 1 << 26
)

// Meta is the trace header block.
type Meta struct {
	// Spec is the generating spec; nil for live captures (the pmtraffic
	// record relay), which have no declarative source.
	Spec *Spec `json:"spec,omitempty"`
	// Source names the producer: "pmtraffic gen" or "pmtraffic record".
	// It is descriptive only — nothing branches on it — so a trace from
	// an older build whose source says "pmsim -record", "pmsimd -record"
	// or "pmrouter -record" still describes and replays.
	Source string `json:"source"`
}

// Record is one captured submission.
type Record struct {
	// OffsetUS is microseconds from trace start: modeled time for
	// generated traces, wall-clock-since-first-capture for live ones.
	OffsetUS int64 `json:"off_us"`
	// Cohort tags the originating cohort ("" for live captures).
	Cohort string `json:"cohort,omitempty"`
	// Shard is the submission's shard id (trusted copy of the body's,
	// checked against it at replay).
	Shard string `json:"shard"`
	// Body is the submission body verbatim ([]byte marshals as base64):
	// the ingest JSON envelope around the profile's own CRC envelope.
	Body []byte `json:"body"`
}

// Writer appends records to a trace stream. Not safe for concurrent use;
// wrap with CaptureWriter for live capture.
type Writer struct {
	w io.Writer
	n int
}

// NewWriter writes the trace header and returns an appender.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.Spec != nil {
		if err := meta.Spec.validate(); err != nil {
			return nil, err
		}
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("traffic: encode trace meta: %w", err)
	}
	if len(metaJSON) > maxMetaBytes {
		return nil, fmt.Errorf("traffic: trace meta %d bytes exceeds %d", len(metaJSON), maxMetaBytes)
	}
	if _, err := w.Write(frame.AppendHeader(nil, traceMagic, traceVersion)); err != nil {
		return nil, fmt.Errorf("traffic: write trace header: %w", err)
	}
	if err := frame.WriteBlock(w, metaJSON); err != nil {
		return nil, fmt.Errorf("traffic: write trace meta: %w", err)
	}
	return &Writer{w: w}, nil
}

// Append writes one record frame.
func (tw *Writer) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("traffic: encode trace record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("traffic: trace record %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	if err := frame.WriteRecord(tw.w, payload); err != nil {
		return fmt.Errorf("traffic: write trace record: %w", err)
	}
	tw.n++
	return nil
}

// reader decodes a trace stream.
type reader struct {
	r    io.Reader
	meta Meta
	buf  []byte // record payload buffer, reused across Next calls
}

// newReader parses the trace header. Failures are typed: frame.ErrCorrupt
// (bad magic, bad meta), frame.ErrTruncated (stream ends inside the
// header), frame.ErrVersionSkew (other format version).
func newReader(r io.Reader) (*reader, error) {
	if err := frame.ReadHeader(r, traceMagic, traceVersion); err != nil {
		return nil, fmt.Errorf("traffic: trace: %w", err)
	}
	metaJSON, err := frame.ReadBlock(r, maxMetaBytes)
	if err != nil {
		return nil, fmt.Errorf("traffic: trace meta: %w", err)
	}
	tr := &reader{r: r}
	if err := json.Unmarshal(metaJSON, &tr.meta); err != nil {
		return nil, fmt.Errorf("traffic: trace meta: %v: %w", err, frame.ErrCorrupt)
	}
	if tr.meta.Spec != nil {
		if err := tr.meta.Spec.validate(); err != nil {
			return nil, fmt.Errorf("traffic: trace meta spec: %v: %w", err, frame.ErrCorrupt)
		}
	}
	return tr, nil
}

// next returns the next record. io.EOF means a clean end (the stream
// ended exactly on a record boundary); frame.ErrTruncated means a torn
// tail; frame.ErrCorrupt means checksum or decode failure.
func (tr *reader) next() (Record, error) {
	payload, err := frame.ReadRecord(tr.r, tr.buf, maxRecordBytes)
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("traffic: trace: %w", err)
	}
	tr.buf = payload
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("traffic: trace record: %v: %w", err, frame.ErrCorrupt)
	}
	if rec.Shard == "" || len(rec.Body) == 0 {
		return Record{}, fmt.Errorf("traffic: trace record missing shard or body: %w", frame.ErrCorrupt)
	}
	return rec, nil
}

// ReadAll decodes the whole trace. On a torn tail it returns the records
// recovered before the tear alongside the typed error, so a replayer can
// choose to proceed with what survived.
func ReadAll(r io.Reader) (Meta, []Record, error) {
	tr, err := newReader(r)
	if err != nil {
		return Meta{}, nil, err
	}
	var recs []Record
	for {
		rec, err := tr.next()
		if err == io.EOF {
			return tr.meta, recs, nil
		}
		if err != nil {
			return tr.meta, recs, err
		}
		recs = append(recs, rec)
	}
}
