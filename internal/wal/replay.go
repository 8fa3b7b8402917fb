package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"profileme/internal/frame"
)

// ReplayInfo reports what a replay found and what it had to repair.
type ReplayInfo struct {
	// Records and Bytes cover the intact records applied.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Segments is how many segment files were read.
	Segments int `json:"segments"`
	// Truncated is true when a torn or invalid record ended the replay
	// early; TruncatedAt is where. Open physically truncates the file
	// there and quarantines any later segments (*.quarantined) so the
	// writer resumes from a consistent tail.
	Truncated   bool `json:"truncated"`
	TruncatedAt Pos  `json:"truncated_at,omitempty"`
	// Quarantined counts later segments set aside after a truncation.
	Quarantined int `json:"quarantined"`
	// Duration is the wall-clock replay time (the boot-latency cost of
	// the WAL, exposed in /v1/stats).
	Duration time.Duration `json:"duration_ns"`
}

// Replay reads the log at dir without repairing it, applying every
// intact record to apply in append order and stopping at the first torn
// or invalid record. It never writes; use Open to replay AND repair.
// A missing directory replays zero records.
func Replay(dir string, apply func(pos Pos, payload []byte) error) (ReplayInfo, error) {
	cfg := Config{Dir: dir}
	if err := cfg.normalize(); err != nil {
		return ReplayInfo{}, err
	}
	return replay(cfg, apply, false)
}

// replay is the shared scan. With repair set, the first invalid record
// truncates its segment in place and later segments are quarantined —
// the write-side contract that acknowledged records survive and
// unacknowledged bytes are removed rather than resurrected.
func replay(cfg Config, apply func(pos Pos, payload []byte) error, repair bool) (ReplayInfo, error) {
	start := cfg.now()
	var info ReplayInfo
	seqs, err := listSegments(cfg.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, fmt.Errorf("wal: replay: %w", err)
	}
	for i, seq := range seqs {
		path := filepath.Join(cfg.Dir, segName(seq))
		goodOff, segErr := replaySegment(cfg, path, seq, apply, &info)
		if segErr != nil {
			return info, segErr
		}
		if info.Truncated {
			if repair {
				if info.TruncatedAt.Off == 0 {
					// The segment header itself is unreadable or foreign.
					// Truncating to zero would leave a headerless file the
					// writer appends to blindly; set the whole segment
					// aside instead and keep its bytes for forensics.
					if err := os.Rename(path, path+".quarantined"); err != nil {
						return info, fmt.Errorf("wal: quarantine %s: %w", path, err)
					}
					info.Quarantined++
				} else if err := os.Truncate(path, goodOff); err != nil {
					return info, fmt.Errorf("wal: truncate %s at %d: %w", path, goodOff, err)
				}
				for _, later := range seqs[i+1:] {
					lp := filepath.Join(cfg.Dir, segName(later))
					if err := os.Rename(lp, lp+".quarantined"); err != nil {
						return info, fmt.Errorf("wal: quarantine %s: %w", lp, err)
					}
					info.Quarantined++
				}
				if err := fsyncDir(cfg.Dir); err != nil {
					return info, fmt.Errorf("wal: replay repair dir sync: %w", err)
				}
			} else {
				info.Quarantined = len(seqs) - i - 1
			}
			break
		}
	}
	info.Segments = len(seqs) - info.Quarantined
	info.Duration = cfg.now().Sub(start)
	return info, nil
}

// replaySegment scans one segment, applying intact records. It returns
// the offset of the first byte past the last intact record. Any frame
// error — torn, rotted, over the record cap — sets info.Truncated/
// TruncatedAt and stops the scan; an unreadable or foreign header counts
// as invalid at the header itself (the whole segment is suspect).
func replaySegment(cfg Config, path string, seq uint64, apply func(Pos, []byte) error, info *ReplayInfo) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	cutAt := func(off int64) (int64, error) {
		info.Truncated = true
		info.TruncatedAt = Pos{Seg: seq, Off: off}
		return off, nil
	}
	if err := frame.ReadHeader(r, segMagic, segVersion); err != nil {
		return cutAt(0)
	}
	if got, err := frame.ReadUint64(r); err != nil || got != seq {
		return cutAt(0)
	}
	goodOff := int64(segHeaderBytes)
	var payload []byte // one buffer, reused across the segment's records
	for {
		payload, err = frame.ReadRecord(r, payload, cfg.maxRecordBytes)
		if err == io.EOF {
			return goodOff, nil // clean end of segment
		}
		if err != nil {
			return cutAt(goodOff)
		}
		if apply != nil {
			pos := Pos{Seg: seq, Off: goodOff}
			if err := apply(pos, payload); err != nil {
				return goodOff, fmt.Errorf("wal: replay %s at %v: apply: %w", path, pos, err)
			}
		}
		n := int64(recHeaderBytes + len(payload))
		goodOff += n
		info.Records++
		info.Bytes += n
	}
}
