package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// Typed admission failures. The HTTP layer maps each to a status code;
// the remote-submit sink maps the statuses back to its retry taxonomy.
var (
	// ErrQueueFull: the bounded queue was full and refused the
	// submission. Transient — back off and retry (HTTP 429).
	ErrQueueFull = errors.New("ingest: queue full")
	// ErrDraining: the service is shutting down and no longer admits
	// work. Transient — retry against a healthy replica (HTTP 503).
	ErrDraining = errors.New("ingest: draining, not accepting submissions")
	// ErrConfigMismatch: the shard's sampling configuration cannot merge
	// into this aggregate. Permanent — retrying cannot help (HTTP 409).
	ErrConfigMismatch = errors.New("ingest: shard sampling configuration does not match aggregate")
	// ErrDuplicate: a shard with this id is already queued or merged.
	// The submission is acknowledged without re-merging (HTTP 202 with a
	// duplicate marker), so a client retrying after a lost response
	// cannot double-count its samples.
	ErrDuplicate = errors.New("ingest: duplicate shard submission")
	// ErrHandedOff: this instance was removed from the tier and a receiver
	// holds its aggregate; accepting anything afterwards would strand
	// samples outside the fleet-wide conservation sum.
	ErrHandedOff = errors.New("ingest: aggregate already handed off")
	// ErrWAL: the write-ahead log could not make the submission durable
	// (append or fsync failure). Transient from the client's view — the
	// submission was NOT acknowledged, so a retry against a healthy
	// replica is safe (HTTP 503).
	ErrWAL = errors.New("ingest: write-ahead log unavailable")
)

// Config parameterizes a Service. Zero values get usable defaults.
type Config struct {
	// QueueDepth bounds the ingest queue (default 64).
	QueueDepth int
	// Policy is the queue overflow policy; RejectNew, the default, is
	// the only one.
	Policy Policy
	// Interval/Window/Width define the aggregate's sampling configuration
	// when starting empty (defaults 512 / 0 / 4); ignored when a seed
	// database is supplied. Submissions must match or are refused with
	// ErrConfigMismatch.
	Interval float64
	Window   int
	Width    int
	// CheckpointPath enables circuit-broken atomic persistence of the
	// aggregate ("" = in-memory only).
	CheckpointPath string
	// CheckpointEvery checkpoints after this many merged submissions
	// (default 1: every merge, like the fleet supervisor).
	CheckpointEvery int
	// BreakerThreshold consecutive checkpoint failures open the breaker
	// (default 3); BreakerCooldown is the open period before a half-open
	// probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// WALDir enables crash durability: every submission is appended to a
	// write-ahead log there and fsynced BEFORE Submit returns, so the 202
	// is a durability contract, not a hope. "" disables the WAL: a crash
	// loses everything since the last checkpoint. Checkpoints become WAL
	// barriers; segments wholly covered by a checkpoint are reclaimed.
	WALDir string
	// FsyncWindow is the group-commit coalescing window (see wal.Config;
	// default 0 = natural batching, where concurrent submits share
	// whatever fsync is already in flight).
	FsyncWindow time.Duration
	// WALSegmentBytes / WALSegmentAge bound segment rotation (defaults
	// from wal.Config: 8 MiB, no age limit).
	WALSegmentBytes int64
	WALSegmentAge   time.Duration
	// WALStallAfter marks the WAL stalled — readiness degrades — when
	// the oldest staged-but-unsynced record is older than this (default
	// 10s). A stalled WAL means fsync has stopped completing: the
	// instance must go unready BEFORE it starts losing data.
	WALStallAfter time.Duration
	// SketchTopK sizes the aggregate's space-saving hot-PC sketch
	// (default 512); hot-PC queries for n <= SketchTopK serve O(n) from
	// the lock-free published view. SketchWindowBuckets of
	// SketchWindowBucket each define the windowed-query ring (defaults
	// 60 × 1s: a one-minute horizon). See profile.SketchConfig.
	SketchTopK          int
	SketchWindowBuckets int
	SketchWindowBucket  time.Duration

	// Log receives progress and degradation lines (nil = silent).
	Log io.Writer

	persist   func() error         // test seam; nil = Service.persistCheckpoint
	mergeHook func(Submission)     // test seam; called before each merge
	walFsync  func(*os.File) error // test seam; threaded to wal.Config.fsync
}

func (c *Config) normalize() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Interval == 0 {
		c.Interval = 512
	}
	if c.Width == 0 {
		c.Width = 4
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.WALStallAfter == 0 {
		c.WALStallAfter = 10 * time.Second
	}
	switch {
	case c.QueueDepth < 1:
		return fmt.Errorf("ingest: queue depth %d", c.QueueDepth)
	case c.Interval < 1:
		return fmt.Errorf("ingest: interval %g < 1", c.Interval)
	case c.Window < 0:
		return fmt.Errorf("ingest: negative window %d", c.Window)
	case c.Width < 1:
		return fmt.Errorf("ingest: issue width %d", c.Width)
	case c.CheckpointEvery < 1:
		return fmt.Errorf("ingest: checkpoint every %d", c.CheckpointEvery)
	case c.Policy != RejectNew:
		return fmt.Errorf("ingest: unknown overflow policy %d", int(c.Policy))
	}
	return nil
}

// Stats is a full snapshot of the service's health counters — the
// /v1/stats payload.
type Stats struct {
	Queue   queueStats   `json:"queue"`
	Breaker breakerStats `json:"breaker"`

	// The ledger's counters (ledger.go): merged, refusals, duplicates,
	// loss, checkpoints, handoffs in, adoptions — copied in one read.
	counters

	// The lifecycle phase as three flags that only turn on (see phase):
	// once Sealed, refusals no longer record loss; HandedOff means THIS
	// instance was removed and retired its books.
	HandedOff bool `json:"handed_off"`
	Draining  bool `json:"draining"`
	Sealed    bool `json:"sealed"`

	// WAL is the write-ahead log's health section, nil when the WAL is
	// disabled. The Router's health tracker reads Stalled to degrade an
	// instance whose fsyncs have stopped completing.
	WAL *WALHealth `json:"wal,omitempty"`

	// Aggregate rollup.
	Samples  uint64  `json:"samples"`
	Lost     uint64  `json:"lost"`
	LossRate float64 `json:"loss_rate"`

	// Sketch is the streaming-summary layer's health: view epoch, top-K
	// occupancy, error floor, window geometry (see profile.SketchStats).
	Sketch profile.SketchStats `json:"sketch"`
}

// WALHealth is the /v1/stats "wal" section: the log's own counters plus
// the service-level replay and pending figures the log cannot know.
type WALHealth struct {
	Segments          int    `json:"segments"`
	SegmentSeq        uint64 `json:"segment_seq"`
	AppendedBytes     int64  `json:"appended_bytes"`
	BytesSinceBarrier int64  `json:"bytes_since_barrier"`
	Appends           uint64 `json:"appends"`
	Syncs             uint64 `json:"syncs"`
	SyncErrors        uint64 `json:"sync_errors"`
	Rotations         uint64 `json:"rotations"`
	// LastSyncAgeMS is how long ago the last successful fsync finished;
	// OldestPendingAgeMS how long the oldest staged-but-unsynced record
	// has been waiting (0 when nothing is pending).
	LastSyncAgeMS      int64 `json:"last_sync_age_ms"`
	OldestPendingAgeMS int64 `json:"oldest_pending_age_ms"`
	// PendingRecords counts admitted-but-unresolved WAL records (staged
	// admits/handoffs the aggregator has not merged yet) — the records a
	// checkpoint barrier must not pass.
	PendingRecords int `json:"pending_records"`
	// ReplayRecords / ReplayDurationMS report the recovery replay at
	// boot (the WAL's boot-latency cost).
	ReplayRecords    int   `json:"replay_records"`
	ReplayDurationMS int64 `json:"replay_duration_ms"`
	// Stalled is true when OldestPendingAge exceeded Config.WALStallAfter
	// — fsync has stopped completing and readiness must degrade.
	Stalled bool `json:"stalled"`
	// Wedged is true when a write or fsync failure permanently stopped
	// the log: every submission answers 503 until a restart replays what
	// survived. Strictly worse than Stalled; readiness must degrade.
	Wedged bool `json:"wedged"`
}

// phase is a service's place in its lifecycle. It only rises — open →
// draining → sealed → retired; a call that would lower it changes
// nothing — and every entry point decides from it alone:
//
//	           new submit         duplicate     AcceptHandoff  AdoptShards   checkpoint
//	open       queued (or 429)    ErrDuplicate  merged         adopted       written
//	draining   503, loss booked   ErrDuplicate  ErrDraining    adopted       written
//	sealed     503, nothing kept  ErrDuplicate  ErrDraining    ErrDraining   written
//	retired    503, nothing kept  ErrDuplicate  ErrHandedOff   ErrHandedOff  skipped
type phase int32

// The zero phase is open.
const (
	phaseDraining phase = 1 + iota // BeginDrain: the backlog still merges; refusals book their loss
	phaseSealed                    // Seal: a handoff export's snapshot is the last word on the books
	phaseRetired                   // Retire: a receiver holds the books; nothing is written back
)

// Service owns the ingest pipeline: HTTP handlers Submit, one aggregator
// goroutine merges, the breaker guards persistence, Drain flushes and
// writes the final checkpoint. The aggregate lives behind a
// profile.SafeDB, so queries run concurrently with ingest. Service is
// wiring: every book and counter lives in the ledger, and the methods
// here compose its transitions with aggregate calls.
type Service struct {
	cfg Config
	agg *profile.SafeDB
	q   *queue
	brk *Breaker
	led *ledger

	wantS        float64
	wantW, wantC int
	wantTNear    int64

	lifecycle atomic.Int32 // a phase; read with phase, raised with enter
	started   atomic.Bool
	done      chan struct{}

	// res, the resolution lock, makes each step that changes the
	// aggregate together with the ledger — merge, refusal, handoff apply,
	// adoption — one step to a checkpoint snapshot, which holds res for
	// its whole encode. Lock order is handoffMu -> res -> the ledger's
	// own lock; never acquire leftwards.
	res sync.Mutex
	// handoffMu serializes AcceptHandoff calls end to end, making the
	// envelope dedupe check-then-apply atomic against a concurrent
	// delivery of the same envelope (netchaos duplicates requests in the
	// background, so this is a real interleaving, not a theoretical
	// one). Handoffs are rare control-plane events; coarse serialization
	// costs nothing.
	handoffMu sync.Mutex

	wal             *wal.Log // nil when disabled; has its own locking
	walReplay       wal.ReplayInfo
	replayedRecords int

	// rowsLen is the length of the last checkpoint's ledger rows, guarded
	// by res: the next checkpoint encodes into an array that size plus
	// rowsSlack, one allocation however many ids the ledger holds.
	rowsLen int
}

// rowsSlack is the room a checkpoint's rows get beyond the last one's:
// the ids applied since take a few bytes each.
const rowsSlack = 4 << 10

// NewService builds a service. seed, when non-nil, becomes the aggregate
// (e.g. a checkpoint reloaded at startup) and defines the sampling
// configuration; otherwise an empty aggregate is built from cfg. With
// cfg.WALDir set, any existing WAL tail there is replayed into the seed
// (with an empty ledger — use Recover to restart from checkpoint + WAL).
func NewService(cfg Config, seed *profile.DB) (*Service, error) {
	return newService(cfg, &Checkpoint{db: seed})
}

// RecoveryInfo reports what Recover reconstructed.
type RecoveryInfo struct {
	// CheckpointLoaded is true when a checkpoint seeded the state;
	// CheckpointQuarantined when a damaged one was set aside (.corrupt)
	// and recovery proceeded from the WAL alone.
	CheckpointLoaded      bool
	CheckpointQuarantined bool
	// Replay is the WAL scan: records re-applied or skipped, repairs.
	Replay wal.ReplayInfo
	// Replayed counts records actually applied (not skipped as covered
	// by the checkpoint ledger).
	Replayed int
}

// Recover restarts a service from its durable state: the checkpoint (if
// any; a PMCK envelope, or a bare profile database, which seeds an empty
// ledger) seeds the aggregate and the admission ledger, then the WAL
// tail is replayed on top, truncating at the first torn record. A
// corrupt or truncated checkpoint is quarantined (.corrupt) and recovery
// proceeds from the WAL alone — conservation then rests on whatever the
// WAL retains. A version-skewed one is an error and is left untouched:
// an older binary must not quietly discard a newer binary's file.
// cfg.WALDir may be "" (plain checkpoint restart, no WAL).
func Recover(cfg Config) (*Service, RecoveryInfo, error) {
	var info RecoveryInfo
	ck := new(Checkpoint) // nothing to restore, unless a file says otherwise
	if cfg.CheckpointPath != "" {
		loaded, err := LoadCheckpointFile(cfg.CheckpointPath)
		switch {
		case loaded != nil:
			info.CheckpointLoaded, ck = true, loaded
		case err == nil: // no file: a fresh start
		case errors.Is(err, profile.ErrCorrupt) || errors.Is(err, profile.ErrTruncated):
			if qerr := quarantineCheckpoint(cfg.CheckpointPath); qerr != nil {
				return nil, info, fmt.Errorf("ingest: recover: quarantine damaged checkpoint: %v (load error: %w)", qerr, err)
			}
			info.CheckpointQuarantined = true
		default:
			return nil, info, err
		}
	}
	s, err := newService(cfg, ck)
	if err != nil {
		return nil, info, err
	}
	info.Replay = s.walReplay
	info.Replayed = s.replayedRecords
	return s, info, nil
}

// newService is the shared constructor: build the service on ck's
// aggregate (an empty one when it has none), install ck's ledger, then
// open the WAL (replaying its tail into the service through the ledger's
// skip logic).
func newService(cfg Config, ck *Checkpoint) (*Service, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	seed := ck.db
	if seed == nil {
		seed = profile.NewDB(cfg.Interval, cfg.Window, cfg.Width)
	}
	s := &Service{
		cfg: cfg,
		agg: profile.NewSafeDBWith(seed, profile.SketchConfig{
			TopK:          cfg.SketchTopK,
			WindowBuckets: cfg.SketchWindowBuckets,
			BucketDur:     cfg.SketchWindowBucket,
		}),
		q:    newQueue(cfg.QueueDepth),
		brk:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		led:  newLedger(),
		done: make(chan struct{}),
	}
	s.wantS, s.wantW, s.wantC, s.wantTNear = s.agg.SamplingConfig()
	s.led.restore(ck)
	if cfg.WALDir != "" {
		l, rinfo, err := wal.Open(wal.Config{
			Dir:          cfg.WALDir,
			SegmentBytes: cfg.WALSegmentBytes,
			SegmentAge:   cfg.WALSegmentAge,
			FsyncWindow:  cfg.FsyncWindow,
			Fsync:        cfg.walFsync,
		}, s.replayRecord)
		if err != nil {
			return nil, fmt.Errorf("ingest: wal: %w", err)
		}
		s.wal, s.walReplay = l, rinfo
		s.led.attachWAL(l.Stage)
		if rinfo.Records > 0 || rinfo.Truncated {
			truncated := ""
			if rinfo.Truncated {
				truncated = fmt.Sprintf(", truncated at %v (%d segments quarantined)", rinfo.TruncatedAt, rinfo.Quarantined)
			}
			s.logf("wal replay: %d records (%d applied) from %d segments in %s%s",
				rinfo.Records, s.replayedRecords, rinfo.Segments, rinfo.Duration.Round(time.Millisecond), truncated)
		}
	}
	if s.cfg.persist == nil {
		s.cfg.persist = s.persistCheckpoint
	}
	return s, nil
}

// Aggregate returns the shared aggregate database.
func (s *Service) Aggregate() *profile.SafeDB { return s.agg }

// Breaker returns the persistence circuit breaker (readiness probes
// inspect its state).
func (s *Service) Breaker() *Breaker { return s.brk }

// QueueDepth returns the current backlog (load-shedding input).
func (s *Service) QueueDepth() int { return s.q.Len() }

// Draining reports whether a drain has begun.
func (s *Service) Draining() bool { return s.phase() >= phaseDraining }

// phase reads the lifecycle word.
func (s *Service) phase() phase { return phase(s.lifecycle.Load()) }

// enter raises the lifecycle word to p; a service already at or past p
// stays where it is.
func (s *Service) enter(p phase) {
	cur := s.lifecycle.Load()
	for cur < int32(p) && !s.lifecycle.CompareAndSwap(cur, int32(p)) {
		cur = s.lifecycle.Load()
	}
}

// Start launches the aggregator goroutine.
func (s *Service) Start() {
	if s.started.CompareAndSwap(false, true) {
		go s.run()
	}
}

// Submit admits one decoded submission into the queue. On refusal the
// shard's captured samples are recorded as aggregate loss — overload
// degrades the estimates' precision, never their centring — and a typed
// error says why. The admission ledger keeps the accounting exact under
// the client's retry taxonomy (429/503 are transient, transport
// failures retried):
//
//   - a shard already queued or merged dedupes to ErrDuplicate, never
//     merging or accounting twice, even mid-drain;
//   - a shard refused more than once is loss-accounted exactly once;
//   - a previously refused shard that is now accepted keeps its recorded
//     loss until the aggregator merges it, and loses it in that same
//     step (see resolve) — so Samples + Lost never dips while it queues.
//
// A config-mismatched shard is refused WITHOUT loss accounting —
// checked before everything else, draining included: its samples were
// never part of this aggregate's population.
//
// The accepted path takes only the ledger's lock, so it never waits for
// a merge or a checkpoint snapshot; refusals take the resolution lock
// too (they change the aggregate).
func (s *Service) Submit(sub Submission) error {
	if err := s.compatible(sub.DB); err != nil {
		return err
	}
	// Cheap duplicate pre-check before building a WAL record (retries of
	// delivered shards are the common case under a flaky network).
	if e, admitted := s.led.lookup(sub.Shard); admitted {
		return s.awaitDuplicate(e.ticket)
	}
	// A sealed service (handoff export in progress) refuses NEW shards
	// with zero side effects — no WAL record, no reservation, no loss
	// accounting. The export snapshot is the last word on this
	// instance's books; a post-seal refusal that recorded loss would add
	// a pair the shipped envelope cannot carry, breaking the fleet sum
	// when the donor's local state is later quarantined. Duplicates of
	// already-admitted shards (above) still answer honestly: their
	// samples are in the envelope and will live on at the receiver.
	if s.phase() >= phaseSealed {
		return ErrDraining
	}
	// Build the WAL record outside any lock: it needs nothing shared.
	var rec []byte
	if s.wal != nil {
		var err error
		if rec, err = encodeAdmitRecord(sub); err != nil {
			return fmt.Errorf("%w: encode: %v", ErrWAL, err)
		}
	}
	// The record holds the wire bytes now; the queue must not pin them.
	sub.wire, sub.b64 = nil, nil
	pos, t, dup, err := s.led.reserve(sub.Shard, rec)
	switch {
	case dup:
		return s.awaitDuplicate(t)
	case err != nil:
		return err
	}
	if err := s.awaitCommit(sub.Shard, pos, t); err != nil {
		return err
	}
	sub.walPos = pos
	if s.Draining() {
		s.refuse(sub)
		return ErrDraining
	}
	switch s.q.offer(sub) {
	case offerClosed:
		// BeginDrain raced with this Submit: same contract as draining —
		// 503, not 429, so the client goes elsewhere instead of retrying
		// a shutting-down instance.
		s.refuse(sub)
		return ErrDraining
	case offerFull:
		s.refuse(sub)
		return ErrQueueFull
	}
	return nil
}

// awaitCommit finishes what a ledger stage call began: wait for the
// batched fsync — only after it returns is the record durable and the
// 202 honest — then settle. On a sync failure nothing was acknowledged,
// so the ledger backs the reservation and the position out and the
// client is sent elsewhere (a duplicate that waited on the same ticket
// answers ErrWAL too, never a false receipt). Without a WAL t is nil and
// there is nothing to wait for.
func (s *Service) awaitCommit(shard string, pos wal.Pos, t *wal.Ticket) error {
	if t == nil {
		return nil
	}
	err := t.Wait()
	s.led.settle(shard, pos, t, err == nil)
	if err != nil {
		return fmt.Errorf("%w: fsync: %v", ErrWAL, err)
	}
	return nil
}

// stageAndWait makes one control-plane WAL record (handoff, adoption)
// durable; without a WAL there is nothing to do. The position stays
// pending — holding the checkpoint barrier — until the caller applies
// the record.
func (s *Service) stageAndWait(rec record, save func(io.Writer) error) (wal.Pos, error) {
	if s.wal == nil {
		return wal.Pos{}, nil
	}
	payload, err := encodeRecord(rec, save)
	if err != nil {
		return wal.Pos{}, fmt.Errorf("%w: encode %s: %v", ErrWAL, rec.Kind, err)
	}
	pos, t, err := s.led.stageRecord(payload)
	if err != nil {
		return wal.Pos{}, err
	}
	return pos, s.awaitCommit("", pos, t)
}

// awaitDuplicate resolves a resubmission of a reserved shard. The 202
// the caller will send is a durability receipt exactly like the
// original's, so when the original submission is still waiting on its
// group commit (t non-nil), the duplicate blocks on the SAME ticket: a
// successful commit yields ErrDuplicate (honest receipt), a failed one
// yields ErrWAL — the original backs its reservation out and this
// client retries elsewhere. t == nil means the record is already
// durable (or the WAL is disabled) and the receipt is immediate.
func (s *Service) awaitDuplicate(t *wal.Ticket) error {
	if t != nil {
		if err := t.Wait(); err != nil {
			return fmt.Errorf("%w: original submission's fsync failed: %v", ErrWAL, err)
		}
	}
	s.led.duplicate()
	return ErrDuplicate
}

// compatible refuses shards that DB.Merge would refuse, before they
// occupy queue space.
func (s *Service) compatible(db *profile.DB) error {
	if db.S != s.wantS || db.W != s.wantW || db.C != s.wantC || db.TNear != s.wantTNear {
		return fmt.Errorf("%w: shard (S=%g W=%d C=%d TNear=%d) vs aggregate (S=%g W=%d C=%d TNear=%d)",
			ErrConfigMismatch, db.S, db.W, db.C, db.TNear, s.wantS, s.wantW, s.wantC, s.wantTNear)
	}
	return nil
}

// refuse backs a shard out of admission and, the first time its id is
// refused, records its captured samples as aggregate loss — ledger entry
// and aggregate loss under one hold of res. Until refuse runs the shard's
// reservation stands, so no other submission of the same id can be in
// flight. A refusal racing a seal (the submit slipped past the sealed
// check, then found the queue closed) records nothing: the client got a
// 503 and retries elsewhere, and the loss is recorded wherever the shard
// lands.
func (s *Service) refuse(sub Submission) {
	n := sub.Captured()
	s.res.Lock()
	defer s.res.Unlock()
	if s.led.refuse(sub.Shard, sub.walPos, n, s.phase() >= phaseSealed) {
		s.agg.RecordLoss(n)
	}
}

// run is the aggregator loop: single consumer, so the merge path itself
// needs no locking beyond SafeDB's.
func (s *Service) run() {
	defer close(s.done)
	for {
		sub, ok := s.q.wait()
		if !ok {
			return
		}
		s.merge(sub)
	}
}

// merge folds one submission into the aggregate and checkpoints through
// the breaker on the configured cadence.
func (s *Service) merge(sub Submission) {
	if s.cfg.mergeHook != nil {
		s.cfg.mergeHook(sub)
	}
	s.res.Lock()
	reversed, err := s.resolve(sub)
	due := s.checkpointDue(1)
	s.res.Unlock()
	if reversed > 0 {
		s.logf("shard %s merged on retry: %d previously accounted samples reversed out of the loss ledger", sub.Shard, reversed)
	}
	if err != nil {
		s.logf("merge failed for shard %s: %v (accounted as loss)", sub.Shard, err)
	}
	if due {
		s.checkpoint()
	}
}

// resolve is the one step that turns an admitted shard into aggregate
// state, shared by the live merge and WAL replay: reverse the shard's
// standing refusal loss if it has one, merge it (or account its captured
// samples as loss when it cannot merge), and book the resolution. The
// caller holds res, so a checkpoint snapshot sees the shard fully
// resolved or not at all.
//
// The reversal belongs here and nowhere earlier: taken back at
// acceptance, the loss would leave Samples + Lost short by the retry's
// captured samples for as long as it queues.
func (s *Service) resolve(sub Submission) (reversed uint64, err error) {
	if reversed = s.led.standingLoss(sub.Shard); reversed > 0 {
		s.agg.ReverseLoss(reversed)
	}
	captured := sub.Captured()
	if err = s.agg.Merge(sub.DB); err != nil {
		// Admission screens configurations, so this is rare (e.g. metric
		// registration skew) — but it still must be accounted, not lost.
		s.agg.RecordLoss(captured)
	}
	s.led.resolve(sub.Shard, sub.walPos, captured, err == nil)
	return reversed, err
}

// checkpointDue adds merged aggregate changes to the ledger's tally and
// reports whether the checkpoint cadence has come round. Called under
// res, so two steps cannot both see the same cadence boundary.
func (s *Service) checkpointDue(merged int) bool {
	return s.cfg.CheckpointPath != "" && s.led.sinceCheckpoint(merged) >= s.cfg.CheckpointEvery
}

// checkpoint persists the aggregate through the circuit breaker: an open
// breaker skips the write (counted, retried next cadence) instead of
// stalling ingest on a dead disk.
func (s *Service) checkpoint() {
	if s.phase() == phaseRetired {
		return // the books live at the receiver (see Retire)
	}
	err := s.brk.do(s.cfg.persist)
	s.led.checkpointed(err)
	if err != nil && !errors.Is(err, errBreakerOpen) {
		s.logf("checkpoint failed: %v", err)
	}
}

// persistCheckpoint is the default persist function. The file is always
// a PMCK envelope: the ledger, the WAL barrier (zero without a WAL) and
// the serialized aggregate, encoded under res as two parts (the rows and
// the image) that are written as they are — the ledger is what lets a
// restart count a retried shard once, WAL or not.
// Every step that changes the aggregate together with a checkpointed
// book holds res, so for the length of the encode they are frozen
// together and the snapshot can never catch a ledger entry without its
// aggregate delta or vice versa (ledger.snapshot says why admission may
// carry on meanwhile). The file write happens outside the lock; then the
// WAL barrier advances and the segments the checkpoint now covers are
// reclaimed — failure there is logged, not fatal: the records are merely
// redundant, and the next checkpoint retries.
func (s *Service) persistCheckpoint() error {
	var ck Checkpoint
	var image bytes.Buffer
	var rows []byte
	s.res.Lock()
	s.led.snapshot(&ck, s.walHead())
	err := s.agg.Save(&image)
	if err == nil {
		ck.Profile = image.Bytes()
		rows, err = appendRows(make([]byte, 0, s.rowsLen+rowsSlack), &ck)
		s.rowsLen = len(rows)
	}
	s.res.Unlock()
	if err != nil {
		return err
	}
	if err := profile.WriteAtomic(s.cfg.CheckpointPath, func(w io.Writer) error {
		return writeRows(w, rows, ck.Profile)
	}); err != nil {
		return err
	}
	if !ck.Barrier.IsZero() {
		if _, err := s.wal.ReclaimBefore(ck.Barrier); err != nil {
			s.logf("wal reclaim below %v failed: %v", ck.Barrier, err)
		}
	}
	return nil
}

// walHead is the WAL's head position, zero without a WAL: a WAL-less
// checkpoint's barrier is zero and reclaims nothing.
func (s *Service) walHead() wal.Pos {
	if s.wal == nil {
		return wal.Pos{}
	}
	return s.wal.Head()
}

// BeginDrain stops admission (Submit starts refusing with ErrDraining)
// without waiting for the backlog. The HTTP layer calls this the moment
// SIGTERM arrives so readiness flips immediately.
func (s *Service) BeginDrain() { s.enter(phaseDraining) }

// Seal closes admission for a handoff export: new shards are refused
// WITHOUT loss accounting (the export snapshot must be the final word
// on this instance's books), while duplicates of already-admitted
// shards keep answering honestly. The caller runs Flush next, then
// serializes the aggregate; see the export endpoint. Sealing is
// one-way — a donor whose removal aborts restarts its process to
// resume admission, which is the rollback path the runbook documents.
func (s *Service) Seal() { s.enter(phaseSealed) }

// Flush is the first half of the graceful-shutdown sequence: stop
// admission and run the queued backlog through the aggregator, without
// persisting. It is its own step because a handoff export flushes and
// then serializes the aggregate instead of checkpointing it. A service
// never started starts its aggregator here, so there is one merge loop.
func (s *Service) Flush(ctx context.Context) error {
	s.BeginDrain()
	s.q.close()
	s.Start()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("ingest: drain: %w", context.Cause(ctx))
	}
}

// FinalCheckpoint writes the last persist of a drain, bypassing the
// breaker: at shutdown durability outranks availability and a stale
// open state must not discard the run. No-op without a checkpoint path,
// and after Retire.
func (s *Service) FinalCheckpoint() error {
	if s.cfg.CheckpointPath == "" || s.phase() == phaseRetired {
		return nil
	}
	if err := s.cfg.persist(); err != nil {
		return fmt.Errorf("ingest: final checkpoint: %w", err)
	}
	s.led.checkpointed(nil)
	return nil
}

// Drain completes the graceful-shutdown sequence: stop admission, flush
// the queued backlog through the aggregator, then write the final
// checkpoint. Returns when the aggregate is fully merged and durable
// (or ctx expires).
func (s *Service) Drain(ctx context.Context) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	if err := s.FinalCheckpoint(); err != nil {
		return err
	}
	if s.cfg.CheckpointPath != "" && s.phase() != phaseRetired {
		c := s.agg.CountersSnapshot()
		s.logf("drained: %d samples aggregated, %d lost (%.1f%% loss), final checkpoint at %s",
			c.Samples, c.Lost, 100*c.LossRate, s.cfg.CheckpointPath)
	}
	return nil
}

// AcceptHandoff merges a removed peer's aggregate and admission ledger
// into this instance — the receiving half of the router's scale-in. The
// donor's shard ids join the ledger (with provenance) BEFORE the merge,
// so a client retry racing the handoff dedupes instead of
// double-merging; the donor's loss ledger rides inside its DB, keeping
// the fleet-wide conservation sum intact. Returns the captured total
// (delivered + lost) that migrated. A draining or retired receiver
// refuses: the router walks to the next candidate.
func (s *Service) AcceptHandoff(h Handoff) (captured uint64, err error) {
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	switch p := s.phase(); {
	case p == phaseRetired:
		return 0, ErrHandedOff
	case p >= phaseDraining:
		return 0, ErrDraining
	}
	// Envelope-level dedupe: a byte-identical redelivery (the sender
	// retrying after a lost 202) answers ErrDuplicate with the captured
	// count the original acknowledged — merging it again would count the
	// donor's whole aggregate twice. Checked before the config screen so
	// even a sender whose retry raced a local config change dedupes.
	if prev, seen := s.led.handoffDuplicate(h.Key); seen {
		return prev, ErrDuplicate
	}
	if err := s.compatible(h.DB); err != nil {
		return 0, err
	}
	captured = h.DB.Samples() + h.DB.Lost()
	// WAL the whole handoff before applying it, like Submit: the donor
	// only retires its own durable state after our 202, so the
	// migrated samples must be durable here first. The record is keyed
	// by its WAL position (stable across replays) so a replay after a
	// crash applies it exactly once. The content key is carried rather
	// than recomputed: the re-serialized profile bytes need not match the
	// wire bytes the key was digested over.
	pos, err := s.stageAndWait(record{Kind: walKindHandoff, From: h.From, Shards: h.Shards, Key: h.Key}, h.DB.Save)
	if err != nil {
		return 0, err
	}
	s.res.Lock()
	mergeErr := s.applyHandoff(h, captured, pos)
	due := mergeErr == nil && s.checkpointDue(0)
	s.res.Unlock()
	if mergeErr != nil {
		return 0, fmt.Errorf("ingest: handoff from %s unmergeable (accounted as loss): %w", h.From, mergeErr)
	}
	s.logf("handoff from %s: %d captured samples (%d shards) merged", h.From, captured, len(h.Shards))
	if due {
		s.checkpoint()
	}
	return captured, nil
}

// applyHandoff folds a handoff into ledger and aggregate — shared
// verbatim by the live path and WAL replay so a replayed handoff
// reconstructs the identical state. The caller holds res, which makes
// the whole fold one step to a checkpoint snapshot. pos is the
// handoff's WAL record (zero without a WAL).
func (s *Service) applyHandoff(h Handoff, captured uint64, pos wal.Pos) error {
	s.led.installHandoff(h.From, h.Shards, h.Key, captured)
	err := s.agg.Merge(h.DB)
	if err != nil {
		// Past the config screen a merge failure is metric-set skew:
		// conserve by accounting the donor's whole captured population as
		// loss rather than silently dropping it from the fleet sum.
		s.agg.RecordLoss(captured)
	}
	s.led.finishHandoff(pos, captured, err == nil)
	return err
}

// AdoptShards takes over dedupe obligations for shards whose ring
// ownership moved here during a membership change: each previously
// unknown shard id joins the ledger with provenance `from`, so a client
// retry of a shard the old owner already merged answers 202+duplicate
// here instead of double-merging. No samples move — adoption is pure
// ledger. The adoption is WAL-durable before it returns (the router
// commits the ring change only after every adoption acked, so the ack
// must survive a crash). Returns how many ids were newly adopted;
// already-admitted ids are skipped silently.
func (s *Service) AdoptShards(from string, shards []string) (int, error) {
	switch p := s.phase(); {
	case p == phaseRetired:
		return 0, ErrHandedOff
	case p >= phaseSealed:
		return 0, ErrDraining
	}
	// Filter to the unseen ids first so the WAL record holds exactly
	// what this call changes (replay then reconstructs the same state
	// whether or not earlier records already admitted some of them).
	fresh := s.led.unadmitted(shards)
	if len(fresh) == 0 {
		return 0, nil
	}
	pos, err := s.stageAndWait(record{Kind: walKindAdopt, From: from, Shards: fresh}, nil)
	if err != nil {
		return 0, err
	}
	s.res.Lock()
	n := s.led.adopt(from, fresh, pos)
	s.res.Unlock()
	if n > 0 {
		s.logf("adopted %d shard ids from %s (ledger only; their samples live elsewhere)", n, from)
	}
	return n, nil
}

// Retire sets this instance's durable state aside once a receiver holds
// its whole aggregate and ledger (the caller sealed and flushed: the
// export did). The WAL is closed and its directory and the checkpoint
// file are renamed *.handedoff — a restart over either would count the
// migrated samples a second time — and from here FinalCheckpoint and the
// periodic checkpoint are no-ops, so nothing writes them back. The only
// way into phaseRetired; every step is idempotent, so a failed Retire is
// simply called again.
func (s *Service) Retire() error {
	s.handoffMu.Lock() // an AcceptHandoff in flight may still be checkpointing
	defer s.handoffMu.Unlock()
	s.enter(phaseRetired)
	var errs []error
	if s.wal != nil {
		errs = append(errs, s.wal.Close(), setAside(s.wal.Dir()))
	}
	if s.cfg.CheckpointPath != "" {
		errs = append(errs, setAside(s.cfg.CheckpointPath))
	}
	return errors.Join(errs...)
}

// setAside renames path to path.handedoff; nothing there is nothing to do.
func setAside(path string) error {
	err := os.Rename(path, path+".handedoff")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Ledger returns one consistent read of the per-shard books: admitted
// and applied ids, standing refusals, donor provenance.
func (s *Service) Ledger() Ledger { return s.led.view() }

// Stats returns a snapshot of every counter the service keeps.
func (s *Service) Stats() Stats {
	c, pending := s.led.counts()
	p := s.phase()
	st := Stats{
		counters:  c,
		Queue:     s.q.snapshot(),
		Breaker:   s.brk.snapshot(),
		Draining:  p >= phaseDraining,
		Sealed:    p >= phaseSealed,
		HandedOff: p == phaseRetired,
		WAL:       s.walHealth(pending),
		Sketch:    s.agg.SketchStats(),
	}
	// One lock-free counters snapshot (an atomic view load, no lock at
	// all) instead of three separate aggregate reads: stats polls never
	// contend with merges under flood.
	agg := s.agg.CountersSnapshot()
	st.Samples, st.Lost, st.LossRate = agg.Samples, agg.Lost, agg.LossRate
	return st
}

// replayRecord is the wal.Open apply callback: reconstruct one record's
// effect through the ledger's skip logic. It runs single-threaded
// during construction, before Start; res is still taken so the apply
// helpers shared with the live path stay uniform. An
// undecodable-but-CRC-valid record is an encoder bug or format skew —
// recovery fails loudly rather than guessing at acknowledged data.
//
// Skip rules keep replay idempotent against the checkpoint and against
// duplicate records: an admit whose shard is already resolved is covered
// by the checkpoint image, and anything else resolves exactly as a live
// merge would — so a submission refused before the crash replays as a
// merge, its captured samples counted once either way, as Samples
// instead of Lost; a handoff is skipped when the ledger says it is
// covered (ledger.handoffCovered); an adoption that raced the
// checkpoint barrier replays to the same state (ledger.adopt). The skip
// is decided on the record's head (recordHead): a record replay skips
// costs no base64 decode and no profile load.
func (s *Service) replayRecord(pos wal.Pos, payload []byte) error {
	head, err := decodeRecordHead(payload)
	if err != nil {
		return err
	}
	s.res.Lock()
	defer s.res.Unlock()
	switch head.Kind {
	case walKindAdmit:
		if e, _ := s.led.lookup(head.Shard); e.applied {
			return nil
		}
	case walKindHandoff:
		if s.led.handoffCovered(pos, head.Key) {
			return nil
		}
	}
	kind, sub, h, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	switch kind {
	case walKindAdmit:
		s.resolve(sub) // merge failure is accounted inside
	case walKindHandoff:
		_ = s.applyHandoff(h, h.DB.Samples()+h.DB.Lost(), pos) // merge failure is accounted inside
	case walKindAdopt:
		s.led.adopt(h.From, h.Shards, wal.Pos{})
	}
	s.replayedRecords++
	return nil
}

// walHealth builds the WAL's health section, nil when disabled.
func (s *Service) walHealth(pending int) *WALHealth {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	return &WALHealth{
		Segments:           st.Segments,
		SegmentSeq:         st.SegmentSeq,
		AppendedBytes:      st.AppendedBytes,
		BytesSinceBarrier:  st.BytesSinceBarrier,
		Appends:            st.Appends,
		Syncs:              st.Syncs,
		SyncErrors:         st.SyncErrors,
		Rotations:          st.Rotations,
		LastSyncAgeMS:      st.LastSyncAge.Milliseconds(),
		OldestPendingAgeMS: st.OldestPendingAge.Milliseconds(),
		PendingRecords:     pending,
		ReplayRecords:      s.walReplay.Records,
		ReplayDurationMS:   s.walReplay.Duration.Milliseconds(),
		Stalled:            st.OldestPendingAge > s.cfg.WALStallAfter,
		Wedged:             st.Wedged,
	}
}

// WALStalled reports whether the WAL's oldest unsynced record has aged
// past Config.WALStallAfter — the readiness probe's degrade signal.
// Always false with the WAL disabled.
func (s *Service) WALStalled() bool {
	return s.wal != nil && s.wal.Stats().OldestPendingAge > s.cfg.WALStallAfter
}

// WALWedged reports whether the WAL has wedged on a write or fsync
// failure: every submission answers ErrWAL until this process restarts
// and replays. Readiness must degrade the instance so the router steers
// submissions to its ring successors. Always false with the WAL
// disabled.
func (s *Service) WALWedged() bool {
	return s.wal != nil && s.wal.Stats().Wedged
}

// CloseWAL syncs and closes the write-ahead log (no-op when disabled).
// Call after Drain: a closed WAL refuses further appends.
func (s *Service) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "ingest: "+format+"\n", args...)
}
