// Package wal is a crash-only write-ahead log: an append-only sequence
// of CRC-framed records spread across rotated segment files, with group
// commit so hot-path appenders share fsyncs instead of paying one each.
//
// Framing is internal/frame's (DESIGN.md §7 "Framing"): every segment
// opens with a versioned header plus its sequence number, and every
// record is a frame stream record. A torn tail (the writer crashed
// mid-record) and rotted bytes (checksum mismatch) are treated alike:
// replay applies records in append order and stops at the first invalid
// frame — everything after it is suspect — which is exactly the prefix
// the writer could have acknowledged: a record is only acknowledged
// (Append returns) after an fsync covered it, so a torn record was never
// promised to anyone.
//
// Rotation is directory-fsync-correct: a new segment file is created,
// its header written and synced, and the parent directory synced before
// any record lands in it — a power cut between those steps loses an
// empty file, never an acknowledged record.
//
// Failure is crash-only too: a failed write OR a failed fsync wedges
// the log permanently (every later Stage/Append fails). Continuing past
// either would let a record be acknowledged physically after bytes
// whose durability is unknown, and replay — which truncates at the
// first invalid frame — would silently discard it. A wedged process
// restarts and replays; that is the only recovery path.
package wal

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"profileme/internal/frame"
)

// Segment and record framing.
const (
	segMagic   = "PMWS"
	segVersion = 1
	// segHeaderBytes: the frame header + the segment's seq u64.
	segHeaderBytes = frame.HeaderLen + 8
	recHeaderBytes = frame.RecordHeaderLen
)

// Typed failures.
var (
	// errClosed: the log was closed; no further appends are accepted.
	errClosed = errors.New("wal: log closed")
	// errTooLarge: one record exceeds the configured record cap.
	errTooLarge = errors.New("wal: record exceeds size cap")
)

// Pos addresses one record: the segment sequence number it lives in and
// its byte offset there. Positions order lexicographically by (Seg,
// Off) and are stable across replays — the same WAL yields the same
// positions, so a position is a durable identity for its record.
type Pos struct {
	Seg uint64
	Off int64
}

// Before reports whether p orders strictly before q.
func (p Pos) Before(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// IsZero reports whether p is the zero position.
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

// String renders seg:off.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// Config parameterizes a Log. Zero values get usable defaults.
type Config struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// SegmentBytes rotates the active segment once it crosses this size
	// (default 8 MiB), which also bounds what one file holds past the
	// last reclaim.
	SegmentBytes int64

	// Fsync overrides the file sync used for durability verdicts (nil =
	// (*os.File).Sync). Tests inject fsync failures through it; leave it
	// nil in production.
	Fsync func(*os.File) error
	// Log receives the wedge record, tagged component=wal (nil = discard).
	Log *slog.Logger

	now func() time.Time // test seam
	// maxRecordBytes caps one record's payload (64 MiB; a test seam) so
	// a corrupt length field can never drive allocation on replay.
	maxRecordBytes int64
}

func (c *Config) normalize() error {
	if c.Dir == "" {
		return errors.New("wal: config needs a directory")
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.SegmentBytes < segHeaderBytes+recHeaderBytes {
		return fmt.Errorf("wal: segment size %d too small", c.SegmentBytes)
	}
	if c.maxRecordBytes == 0 {
		c.maxRecordBytes = 64 << 20
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.Fsync == nil {
		c.Fsync = (*os.File).Sync
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	c.Log = c.Log.With("component", "wal")
	return nil
}

// Stats is a point-in-time snapshot of the log's health — the substrate
// for /v1/stats "wal" and the /readyz stall probe.
type Stats struct {
	// Segments is how many segment files currently exist on disk.
	Segments int `json:"segments"`
	// SegmentSeq is the active segment's sequence number.
	SegmentSeq uint64 `json:"segment_seq"`
	// AppendedBytes is the monotonic total of record bytes ever staged
	// (headers included) since Open.
	AppendedBytes int64 `json:"appended_bytes"`
	// BytesSinceBarrier is how much has been appended since the last
	// barrier (ReclaimBefore) — the replay debt a crash right now would
	// incur.
	BytesSinceBarrier int64 `json:"bytes_since_barrier"`
	// Appends counts records staged; Syncs counts fsyncs; SyncErrors
	// counts failed fsyncs (each one failed a whole batch of appends).
	Appends    uint64 `json:"appends"`
	Syncs      uint64 `json:"syncs"`
	SyncErrors uint64 `json:"sync_errors"`
	Rotations  uint64 `json:"rotations"`
	// LastSyncAge is the time since the last successful fsync, or since
	// Open before the first. OldestPendingAge is how long the oldest
	// staged record without a verdict has been waiting, its batch's
	// fsync in flight included — the stall signal: a healthy group
	// commit keeps it near one fsync, a hung or dead disk lets it grow
	// without bound. Neither has a JSON name: /v1/stats serves both in
	// milliseconds.
	LastSyncAge      time.Duration `json:"-"`
	OldestPendingAge time.Duration `json:"-"`
	// Wedged is true when a write or fsync failure has permanently
	// stopped the log: every Stage/Append fails until a restart replays
	// what actually survived. A wedged instance must go unready.
	Wedged bool `json:"wedged"`
}

// batch is one group commit: every record staged while it was open
// becomes durable (or fails) with a single fsync.
type batch struct {
	done   chan struct{}
	opened time.Time
	err    error
}

// Ticket is a staged record's claim on the next group commit.
type Ticket struct{ b *batch }

// Wait blocks until the record's batch has been fsynced and returns the
// sync outcome. A record is durable if and only if Wait returns nil.
func (t *Ticket) Wait() error {
	<-t.b.done
	return t.b.err
}

// Log is an append-only segmented write-ahead log. Stage/Append are safe
// for concurrent use; one background syncer goroutine runs the group
// commits.
type Log struct {
	cfg Config

	mu  sync.Mutex
	f   *os.File
	seq uint64 // active segment sequence
	off int64  // active segment size (bytes written, staged included)
	cur *batch // open batch collecting staged records (nil = none)
	// syncing is the batch whose verdict is in flight (nil = none); it
	// is older than cur, so Stats ages it first.
	syncing *batch
	closed  bool
	// wedged is the log's fatal-failure latch. A failed write leaves a
	// partial frame on disk; a failed fsync leaves records whose
	// durability is unknowable (after an fsync EIO the kernel may mark
	// the dirty pages clean, so a LATER fsync can succeed while the data
	// is gone). Either way, nothing may be acknowledged past the failure
	// — the log refuses all further work and restart-side replay decides
	// what actually survived.
	wedged error
	// sealed holds rotated-out segments awaiting their final fsync +
	// close, which happen inside the next durability verdict (syncAll)
	// rather than at rotation time — see rotateLocked.
	sealed    []*os.File
	barrier   Pos
	barrierAt int64     // AppendedBytes when the barrier was last advanced
	lastSync  time.Time // Open, then each successful verdict
	// stats keeps the counters (Segments, AppendedBytes, Appends, Syncs,
	// SyncErrors, Rotations); Stats fills in the rest of a copy.
	stats Stats

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// segName renders a segment file name; the fixed-width decimal keeps
// lexical order equal to numeric order.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(mid) != 16 {
		return 0, false
	}
	for _, r := range mid {
		if r < '0' || r > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(r-'0')
	}
	return seq, true
}

// listSegments returns the segment sequences present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// nextFreshSeq picks the first segment sequence for an empty log,
// skipping past any *.quarantined segments left by replay repair.
func nextFreshSeq(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var next uint64 = 1
	for _, e := range ents {
		name := strings.TrimSuffix(e.Name(), ".quarantined")
		if seq, ok := parseSegName(name); ok && seq >= next {
			next = seq + 1
		}
	}
	return next, nil
}

// fsyncDir syncs a directory so renames/creates/removes inside it
// survive power loss. Filesystems that cannot sync a directory
// (EINVAL/ENOTSUP) are tolerated; real write errors are not.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, errors.ErrUnsupported) {
			return nil
		}
		// Some filesystems report EINVAL for directory fsync; treat any
		// *Sync* failure on the handle that still allowed the open as
		// unsupported only when the PathError says so.
		var pe *os.PathError
		if errors.As(err, &pe) && (pe.Err == os.ErrInvalid || pe.Err.Error() == "invalid argument" || pe.Err.Error() == "operation not supported") {
			return nil
		}
		return err
	}
	return nil
}

// Open opens (creating if needed) the log in cfg.Dir, replays every
// intact record through apply in append order, repairs the tail (the
// first torn or invalid record and everything after it is truncated
// away — see Replay), and leaves the log ready to append. apply may be
// nil when the caller only wants the write side of a fresh log.
//
// An apply error aborts Open: the caller's state machine could not
// absorb a record the log had acknowledged, which is not a WAL-level
// problem to paper over.
func Open(cfg Config, apply func(pos Pos, payload []byte) error) (*Log, ReplayInfo, error) {
	if err := cfg.normalize(); err != nil {
		return nil, ReplayInfo{}, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("wal: open: %w", err)
	}
	info, err := replay(cfg, apply, true)
	if err != nil {
		return nil, info, err
	}
	l := &Log{
		cfg:      cfg,
		lastSync: cfg.now(),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	seqs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, info, fmt.Errorf("wal: open: %w", err)
	}
	l.stats.Segments = len(seqs)
	if len(seqs) == 0 {
		// Start past any quarantined segments so positions in records we
		// acknowledge from here on never collide with positions a previous
		// incarnation may have handed out inside a now-quarantined file.
		first, err := nextFreshSeq(cfg.Dir)
		if err != nil {
			return nil, info, fmt.Errorf("wal: open: %w", err)
		}
		if err := l.newSegmentLocked(first); err != nil {
			return nil, info, err
		}
	} else {
		last := seqs[len(seqs)-1]
		f, err := os.OpenFile(filepath.Join(cfg.Dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("wal: open segment %d: %w", last, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, info, fmt.Errorf("wal: open segment %d: %w", last, err)
		}
		l.f, l.seq, l.off = f, last, st.Size()
	}
	// Resume the barrier at the start of the oldest retained segment:
	// everything below it was reclaimed by a previous incarnation.
	if len(seqs) > 0 {
		l.barrier = Pos{Seg: seqs[0], Off: 0}
	} else {
		l.barrier = Pos{Seg: l.seq, Off: segHeaderBytes}
	}
	l.wg.Add(1)
	go l.syncLoop()
	return l, info, nil
}

// newSegmentLocked creates segment seq, writes and syncs its header, and
// syncs the directory so the file's existence is durable before any
// record can land in it. Caller holds l.mu (or is initializing).
func (l *Log) newSegmentLocked(seq uint64) error {
	path := filepath.Join(l.cfg.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", seq, err)
	}
	hdr := frame.AppendUint64(frame.AppendHeader(nil, segMagic, segVersion), seq)
	// On any failure past this point the half-created file must go away:
	// rotation retries the same seq, and a leftover would turn one
	// transient create error into a permanent "file exists".
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: segment %d header: %w", seq, err)
	}
	if err := l.cfg.Fsync(f); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: segment %d header sync: %w", seq, err)
	}
	if err := fsyncDir(l.cfg.Dir); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: segment %d dir sync: %w", seq, err)
	}
	l.f, l.seq, l.off = f, seq, segHeaderBytes
	l.stats.Segments++
	return nil
}

// rotateLocked opens the next segment and queues the old one for
// sealing: its final fsync + close happen inside the next durability
// verdict (syncAll), not here — an fsync under l.mu would stall every
// Stage behind the disk, and an fsync concurrent with an in-flight
// group commit could split a writeback error between the two (see
// syncAll). The new segment is created BEFORE the old one is given up,
// so a failed create leaves the old segment open and active: the log
// stays fully usable and rotation simply retries on the next Stage.
func (l *Log) rotateLocked() error {
	old := l.f
	if err := l.newSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	l.sealed = append(l.sealed, old)
	l.stats.Rotations++
	return nil
}

// Stage frames and buffers one record into the active segment and
// returns its position plus a Ticket for the group commit that will
// make it durable. Stage itself is fast (one buffered write); the
// caller decides when to block on durability via Ticket.Wait. The
// record is NOT durable until Wait returns nil. Stage keeps no reference
// to payload: its bytes are in the segment file when Stage returns, so
// the caller may reuse the buffer at once, before Wait
// (TestStageKeepsNoPayload).
func (l *Log) Stage(payload []byte) (Pos, *Ticket, error) {
	if int64(len(payload)) > l.cfg.maxRecordBytes {
		return Pos{}, nil, fmt.Errorf("%w: %d > %d", errTooLarge, len(payload), l.cfg.maxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, nil, errClosed
	}
	if l.wedged != nil {
		return Pos{}, nil, fmt.Errorf("wal: wedged by earlier failure: %w", l.wedged)
	}
	if l.off >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, nil, err
		}
	}
	hdr := frame.RecordHeader(payload)
	pos := Pos{Seg: l.seq, Off: l.off}
	if _, err := l.f.Write(hdr[:]); err != nil {
		l.wedge(err)
		return Pos{}, nil, fmt.Errorf("wal: stage: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		// A partial frame may now sit at l.off. Replay will truncate it
		// as torn — which is only safe if nothing valid ever lands after
		// it, so the log wedges rather than appending past damage.
		l.wedge(err)
		return Pos{}, nil, fmt.Errorf("wal: stage: %w", err)
	}
	n := int64(recHeaderBytes + len(payload))
	l.off += n
	l.stats.AppendedBytes += n
	l.stats.Appends++
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{}), opened: l.cfg.now()}
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return pos, &Ticket{b: l.cur}, nil
}

// Append stages one record and blocks until its group commit completes:
// when Append returns nil, the record is durable.
func (l *Log) Append(payload []byte) (Pos, error) {
	pos, t, err := l.Stage(payload)
	if err != nil {
		return Pos{}, err
	}
	return pos, t.Wait()
}

// syncLoop is the group-commit engine: each kick marks an open batch,
// one fsync covers every record staged into it, and the batch's waiters
// are released together. There is no timer: records staged while a
// verdict is in flight form the next batch, so batches grow with load.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.quit:
			return
		case <-l.kick:
		}
		if b := l.take(); b != nil {
			b.err = l.syncAll()
			close(b.done)
		}
	}
}

// take detaches the open batch (nil = none) for a verdict. It stays
// visible to Stats as syncing until syncAll clears it.
func (l *Log) take() *batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.cur
	l.cur, l.syncing = nil, b
	return b
}

// syncAll is the single durability verdict: fsync every rotated-out
// segment awaiting its seal, then the active one. Verdicts never run
// concurrently — the syncer runs them one at a time, and Close runs the
// last only after the syncer has stopped — because the kernel reports a
// writeback error to only ONE of several concurrent fsyncs on a file:
// two racing verdicts could split an EIO, one wedging the log while the
// other falsely acknowledges its batch. None runs after a wedge.
// l.mu is NOT held across the fsyncs — appenders keep staging the next
// batch while this one commits (commit pipelining), and a slow disk
// never blocks Stage or the service mutexes above it.
//
// A failed fsync wedges the log exactly like a failed write: on Linux
// an fsync EIO marks the un-written dirty pages clean, so a later
// fsync of the same file can succeed while the data is gone — if
// appends continued, a record could be acknowledged physically AFTER a
// lost one, and restart replay (which truncates at the first invalid
// frame) would silently discard it. Nothing is acknowledged past a
// failed verdict; the wedge clears only via restart + replay.
func (l *Log) syncAll() error {
	l.mu.Lock()
	if werr := l.wedged; werr != nil {
		l.stats.SyncErrors++
		l.syncing = nil
		l.mu.Unlock()
		return fmt.Errorf("wal: wedged by earlier failure: %w", werr)
	}
	sealed := l.sealed
	l.sealed = nil
	f := l.f
	l.mu.Unlock()

	var err error
	for _, s := range sealed {
		if serr := l.cfg.Fsync(s); serr != nil && err == nil {
			err = serr
		}
	}
	if err == nil && f != nil {
		err = l.cfg.Fsync(f)
	}

	l.mu.Lock()
	l.stats.Syncs++
	l.syncing = nil
	if err != nil {
		l.stats.SyncErrors++
		l.wedge(err)
	} else {
		l.lastSync = l.cfg.now()
	}
	l.mu.Unlock()
	// Sealed segments can close now: on success their records are
	// durable; on failure the log is wedged and they hold nothing
	// acknowledgeable. A close error cannot lose synced data.
	for _, s := range sealed {
		s.Close()
	}
	return err
}

// wedge is the one writer of the wedge latch: the first failure stays
// and is logged once; a later one changes nothing. Caller holds l.mu.
func (l *Log) wedge(err error) {
	if l.wedged == nil {
		l.wedged = err
		l.cfg.Log.Error("wal wedged", "dir", l.cfg.Dir, "err", err)
	}
}

// Head returns the position the NEXT record would be staged at. Every
// already-staged record's position is strictly before Head.
func (l *Log) Head() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.seq, Off: l.off}
}

// ReclaimBefore advances the barrier to p and deletes every segment
// that lies wholly below it (seg < p.Seg). The caller guarantees that
// every record before p is reflected in a durable checkpoint; records
// in p's own segment survive (replay skips them via the checkpoint's
// ledger). The directory is synced after removal so the reclaim itself
// is crash-consistent.
func (l *Log) ReclaimBefore(p Pos) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.Before(l.barrier) {
		return 0, nil // never move the barrier backwards
	}
	l.barrier = p
	l.barrierAt = l.stats.AppendedBytes
	seqs, err := listSegments(l.cfg.Dir)
	if err != nil {
		return 0, fmt.Errorf("wal: reclaim: %w", err)
	}
	for _, seq := range seqs {
		if seq >= p.Seg || seq == l.seq {
			continue
		}
		if rerr := os.Remove(filepath.Join(l.cfg.Dir, segName(seq))); rerr != nil {
			return removed, fmt.Errorf("wal: reclaim segment %d: %w", seq, rerr)
		}
		removed++
		l.stats.Segments--
	}
	if removed > 0 {
		if derr := fsyncDir(l.cfg.Dir); derr != nil {
			return removed, fmt.Errorf("wal: reclaim dir sync: %w", derr)
		}
	}
	return removed, nil
}

// Stats snapshots the log's health counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.SegmentSeq = l.seq
	st.BytesSinceBarrier = st.AppendedBytes - l.barrierAt
	st.Wedged = l.wedged != nil
	now := l.cfg.now()
	st.LastSyncAge = now.Sub(l.lastSync)
	oldest := l.syncing
	if oldest == nil {
		oldest = l.cur
	}
	if oldest != nil {
		st.OldestPendingAge = now.Sub(oldest.opened)
	}
	return st
}

// Close stops the syncer, syncs everything staged, releases any waiting
// batch, and closes the active segment. Further Stage/Append calls fail
// with errClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	l.wg.Wait()
	b := l.take()
	err := l.syncAll()
	if b != nil {
		b.err = err
		close(b.done)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Dir returns the log's directory (for quarantine after a handoff).
func (l *Log) Dir() string { return l.cfg.Dir }
