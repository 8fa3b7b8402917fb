package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// Typed admission failures. The HTTP layer maps each to a status code;
// the remote-submit sink maps the statuses back to its retry taxonomy.
var (
	// ErrQueueFull: the bounded queue refused the submission (RejectNew
	// policy). Transient — back off and retry (HTTP 429).
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
	// ErrHandedOff: this instance already shipped its aggregate to its
	// ring successor; accepting anything afterwards would strand samples
	// outside the fleet-wide conservation sum.
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
	// Policy is the queue overflow policy (default RejectNew).
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
	// is a durability contract, not a hope. "" disables the WAL (the
	// pre-WAL behavior: a crash loses everything since the last
	// checkpoint). Checkpoints become WAL barriers; segments wholly
	// covered by a checkpoint are reclaimed.
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

	persist   func() error         // test seam; nil = WriteAtomic of the aggregate
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
	}
	return nil
}

// Stats is a full snapshot of the service's health counters — the
// /v1/stats payload.
type Stats struct {
	Queue   QueueStats   `json:"queue"`
	Breaker BreakerStats `json:"breaker"`

	Merged      uint64 `json:"merged"`       // submissions folded into the aggregate
	MergeFailed uint64 `json:"merge_failed"` // accepted but unmergeable (accounted as loss)

	OverloadRejected uint64 `json:"overload_rejected"`     // refusal responses (429/503), retries included
	OverloadDropped  uint64 `json:"overload_dropped"`      // evicted by DropOldest
	Duplicates       uint64 `json:"duplicate_submissions"` // resubmissions of admitted shards (deduped)

	// SamplesLost mirrors the aggregate's overload/drain loss ledger: it
	// counts each refused shard's captured samples once, no matter how
	// many times the shard was refused, and goes back DOWN when a refused
	// shard is later accepted on retry (the loss is reversed).
	SamplesLost uint64 `json:"samples_lost"`
	// LossReversed totals the reversals, so SamplesLost + LossReversed is
	// the high-water mark of loss ever recorded.
	LossReversed uint64 `json:"samples_loss_reversed"`

	Checkpoints        uint64 `json:"checkpoints"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	CheckpointShorted  uint64 `json:"checkpoint_short_circuited"`

	// Handoff accounting: HandoffsIn counts donor aggregates merged into
	// this instance during peer drains, HandoffCaptured their total
	// captured samples (delivered + lost) — the amount of fleet-wide
	// accounting that migrated here. HandedOff flips when THIS instance
	// shipped its aggregate away.
	HandoffsIn      uint64 `json:"handoffs_in"`
	HandoffCaptured uint64 `json:"handoff_captured"`
	HandedOff       bool   `json:"handed_off"`
	// AdoptedShards counts shard ids taken over via ledger adoption
	// during membership changes — dedupe obligations, not samples.
	AdoptedShards uint64 `json:"adopted_shards"`

	Draining bool `json:"draining"`
	// Sealed means admission is closed for a handoff export: refusals no
	// longer record loss (nothing after the export snapshot may mutate
	// the books this instance will ship).
	Sealed bool `json:"sealed"`

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

// Service owns the ingest pipeline: HTTP handlers Submit, one aggregator
// goroutine merges, the breaker guards persistence, Drain flushes and
// writes the final checkpoint. The aggregate lives behind a
// profile.SafeDB, so queries run concurrently with ingest.
type Service struct {
	cfg Config
	agg *profile.SafeDB
	q   *Queue
	brk *Breaker

	wantS        float64
	wantW, wantC int
	wantTNear    int64

	draining  atomic.Bool
	sealed    atomic.Bool
	started   atomic.Bool
	handedOff atomic.Bool
	done      chan struct{}

	// Two locks split the state along one seam: what admission needs to
	// answer a submission, and what must change together with the
	// aggregate. Lock order is handoffMu -> res -> led; never acquire
	// leftwards.
	//
	// res, the resolution lock, serialises every step that changes the
	// aggregate together with the durable ledger: merge (reversal of a
	// standing refusal + merge + applied mark + pending release), refuse
	// (+ RecordLoss), handoff apply, ledger adoption, and the checkpoint
	// snapshot, which holds res for its whole encode so that the aggregate
	// image, the ledger and the barrier come from one instant. The
	// checkpointed books — applied, refusedLoss, handoffFrom,
	// appliedHandoffs, handoffSeen — are WRITTEN under both locks, so a
	// holder of either may read them.
	//
	// led, the ledger lock, guards the admission books — admitted,
	// inflight, pending — and every counter below. It is held for map
	// operations (and the buffered wal.Stage that must be atomic with its
	// pending entry) only: never across SafeDB.Merge, a Save, or an fsync,
	// so a Submit never waits for a merge or a snapshot.
	res sync.Mutex
	led sync.Mutex

	merged      uint64
	mergeFail   uint64
	rejected    uint64
	dropped     uint64
	dupes       uint64
	lostSamp    uint64
	lostRev     uint64
	ckptOK      uint64
	ckptFail    uint64
	ckptShort   uint64
	handoffsIn  uint64
	handoffCapt uint64
	sinceCkpt   int

	// Shard admission ledger. admitted holds shard ids that are queued or
	// merged — a resubmission dedupes to ErrDuplicate instead of merging
	// twice (a lost 202 makes honest clients retry delivered shards).
	// refusedLoss maps shard ids whose captured samples sit in the
	// aggregate's loss ledger (429/503 refusals, DropOldest evictions) to
	// the exact count recorded, so a repeat refusal accounts nothing new
	// and the merge of an accepted retry reverses precisely what was
	// recorded. Memory grows with distinct shard ids, which a campaign
	// bounds by benchmarks × shards.
	admitted    map[string]bool
	refusedLoss map[string]uint64
	// inflight maps a reserved shard id to the WAL ticket its original
	// submission is still waiting on. A resubmission that finds its shard
	// admitted must NOT answer "duplicate" off the reservation alone —
	// the 202+duplicate is a durability receipt too, so the duplicate
	// path blocks on the same ticket and fails with ErrWAL if the
	// original's group commit fails. Entries exist only between Stage and
	// Wait; a shard with no entry is either durably logged or WAL-less.
	inflight map[string]*wal.Ticket
	// handoffFrom records ledger provenance: shard ids admitted here not
	// by direct submission but because a draining peer handed its ledger
	// over — the reason a retry of a donor-merged shard dedupes at the
	// successor instead of double-merging across a drain failover.
	handoffFrom map[string]string
	// handoffSeen maps applied handoff envelopes' content digests to the
	// captured total each acknowledged. A byte-identical redelivery (the
	// sender retrying after a lost ack) answers ErrDuplicate with the
	// original captured count instead of merging the donor's aggregate a
	// second time — the envelope-level twin of the per-shard admission
	// dedupe. Persisted in checkpoints and reconstructed by WAL replay.
	handoffSeen map[string]uint64
	// adopted counts shard ids this instance took over via ledger
	// adoption (membership changes): dedupe obligations whose samples
	// live elsewhere in the fleet.
	adopted uint64

	// handoffMu serializes AcceptHandoff calls end to end, making the
	// envelope dedupe check-then-apply atomic against a concurrent
	// delivery of the same envelope (netchaos duplicates requests in the
	// background, so this is a real interleaving, not a theoretical
	// one). Handoffs are rare control-plane events; coarse serialization
	// costs nothing.
	handoffMu sync.Mutex

	// WAL state (the log itself has its own locking). applied holds shard
	// ids the aggregator has RESOLVED (merged or merge-failed-and-
	// accounted) — the set a checkpoint snapshots so replay can skip
	// covered admit records; admitted minus applied is "reserved or
	// queued". pending maps staged WAL positions to their unresolved
	// records: the checkpoint barrier is min(pending) so reclaim can never
	// outrun an acknowledged-but-unmerged record. appliedHandoffs keys
	// applied handoff records by Pos.String() — stable across replays — so
	// a replayed handoff never double-merges.
	wal             *wal.Log
	walReplay       wal.ReplayInfo
	applied         map[string]bool
	pending         map[wal.Pos]struct{}
	appliedHandoffs map[string]bool
	replayedRecords int
}

// NewService builds a service. seed, when non-nil, becomes the aggregate
// (e.g. a checkpoint reloaded at startup) and defines the sampling
// configuration; otherwise an empty aggregate is built from cfg. With
// cfg.WALDir set, any existing WAL tail there is replayed into the seed
// (with an empty ledger — use Recover to restart from checkpoint + WAL).
func NewService(cfg Config, seed *profile.DB) (*Service, error) {
	return newService(cfg, seed, nil)
}

// RecoveryInfo reports what Recover reconstructed.
type RecoveryInfo struct {
	// CheckpointLoaded is true when a checkpoint seeded the state;
	// CheckpointQuarantined when a damaged one was set aside (.corrupt)
	// and recovery proceeded from the WAL alone.
	CheckpointLoaded      bool
	CheckpointQuarantined bool
	// LegacyCheckpoint is true when the checkpoint was a pre-WAL bare
	// profile database (no ledger, no barrier).
	LegacyCheckpoint bool
	// Replay is the WAL scan: records re-applied or skipped, repairs.
	Replay wal.ReplayInfo
	// Replayed counts records actually applied (not skipped as covered
	// by the checkpoint ledger).
	Replayed int
}

// Recover restarts a service from its durable state: the checkpoint (if
// any) seeds the aggregate and the admission ledger, then the WAL tail
// is replayed on top, truncating at the first torn record. A corrupt
// checkpoint is quarantined (.corrupt) and recovery proceeds from the
// WAL alone — conservation then rests on whatever the WAL retains.
// cfg.WALDir may be "" (plain checkpoint restart, no WAL).
func Recover(cfg Config) (*Service, RecoveryInfo, error) {
	var info RecoveryInfo
	var ck *Checkpoint
	if cfg.CheckpointPath != "" {
		var err error
		ck, err = LoadCheckpointFile(cfg.CheckpointPath)
		switch {
		case err == nil:
			info.CheckpointLoaded = ck != nil
		case errors.Is(err, profile.ErrCorrupt) || errors.Is(err, profile.ErrTruncated):
			if qerr := QuarantineCheckpoint(cfg.CheckpointPath); qerr != nil {
				return nil, info, fmt.Errorf("ingest: recover: quarantine damaged checkpoint: %v (load error: %w)", qerr, err)
			}
			info.CheckpointQuarantined = true
			ck = nil
		default:
			return nil, info, err
		}
	}
	var seed *profile.DB
	if ck != nil && len(ck.Profile) > 0 {
		db, err := profile.LoadDB(bytes.NewReader(ck.Profile))
		if err != nil {
			return nil, info, fmt.Errorf("ingest: recover: checkpoint profile: %w", err)
		}
		seed = db
		info.LegacyCheckpoint = ck.Applied == nil && ck.RefusedLoss == nil && ck.Barrier.IsZero()
	}
	s, err := newService(cfg, seed, ck)
	if err != nil {
		return nil, info, err
	}
	info.Replay = s.walReplay
	info.Replayed = s.replayedRecords
	return s, info, nil
}

// newService is the shared constructor: build the service, install the
// checkpoint ledger, then open the WAL (replaying its tail into the
// service through the ledger's skip logic).
func newService(cfg Config, seed *profile.DB, ck *Checkpoint) (*Service, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	q, err := NewQueue(cfg.QueueDepth, cfg.Policy)
	if err != nil {
		return nil, err
	}
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
		q:               q,
		brk:             NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		done:            make(chan struct{}),
		admitted:        make(map[string]bool),
		refusedLoss:     make(map[string]uint64),
		inflight:        make(map[string]*wal.Ticket),
		handoffFrom:     make(map[string]string),
		handoffSeen:     make(map[string]uint64),
		applied:         make(map[string]bool),
		pending:         make(map[wal.Pos]struct{}),
		appliedHandoffs: make(map[string]bool),
	}
	s.wantS, s.wantW, s.wantC, s.wantTNear = s.agg.SamplingConfig()
	if ck != nil {
		for _, sh := range ck.Applied {
			s.admitted[sh] = true
			s.applied[sh] = true
		}
		for sh, n := range ck.RefusedLoss {
			s.refusedLoss[sh] = n
			s.lostSamp += n
		}
		for sh, from := range ck.HandoffFrom {
			s.handoffFrom[sh] = from
			s.admitted[sh] = true
		}
		for _, key := range ck.AppliedHandoffs {
			s.appliedHandoffs[key] = true
		}
		for key, captured := range ck.HandoffKeys {
			s.handoffSeen[key] = captured
		}
	}
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
		s.wal = l
		s.walReplay = rinfo
		if rinfo.Records > 0 || rinfo.Truncated {
			s.logf("wal replay: %d records (%d applied) from %d segments in %s%s",
				rinfo.Records, s.replayedRecords, rinfo.Segments, rinfo.Duration.Round(time.Millisecond),
				map[bool]string{true: fmt.Sprintf(", truncated at %v (%d segments quarantined)", rinfo.TruncatedAt, rinfo.Quarantined), false: ""}[rinfo.Truncated])
		}
	}
	if s.cfg.persist == nil {
		if s.wal != nil {
			s.cfg.persist = s.persistCheckpoint
		} else {
			s.cfg.persist = func() error {
				return profile.WriteAtomic(s.cfg.CheckpointPath, s.agg.Save)
			}
		}
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
func (s *Service) Draining() bool { return s.draining.Load() }

// Start launches the aggregator goroutine.
func (s *Service) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.run()
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
//     step (see resolve) — so Samples + Lost never dips while it queues,
//     and a shard evicted after being accepted has nothing to take back.
//
// A config-mismatched shard is refused WITHOUT loss accounting —
// checked before everything else, draining included: its samples were
// never part of this aggregate's population.
//
// The accepted path takes only the ledger lock, so it never waits for a
// merge or a checkpoint snapshot; refusals take the resolution lock too
// (they change the aggregate).
func (s *Service) Submit(sub Submission) error {
	if err := s.compatible(sub.DB); err != nil {
		return err
	}
	// Cheap duplicate pre-check before building a WAL record (retries of
	// delivered shards are the common case under a flaky network).
	s.led.Lock()
	if s.admitted[sub.Shard] {
		t := s.inflight[sub.Shard]
		s.led.Unlock()
		return s.awaitDuplicate(t)
	}
	s.led.Unlock()
	// A sealed service (handoff export in progress) refuses NEW shards
	// with zero side effects — no WAL record, no reservation, no loss
	// accounting. The export snapshot is the last word on this
	// instance's books; a post-seal refusal that recorded loss would add
	// a pair the shipped envelope cannot carry, breaking the fleet sum
	// when the donor's local state is later quarantined. Duplicates of
	// already-admitted shards (above) still answer honestly: their
	// samples are in the envelope and will live on at the receiver.
	if s.sealed.Load() {
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
	sub.wire = nil
	// Reserve the shard id before touching the queue so two racing
	// submissions of the same shard cannot both merge; the reservation is
	// released again on refusal. The WAL record is staged in the same
	// critical section so its position is registered in the pending set
	// before any checkpoint can compute a barrier past it — otherwise a
	// reclaim racing this Submit could erase an acknowledged record
	// before the aggregator resolves it.
	var ticket *wal.Ticket
	s.led.Lock()
	if s.admitted[sub.Shard] {
		t := s.inflight[sub.Shard]
		s.led.Unlock()
		return s.awaitDuplicate(t)
	}
	if s.wal != nil {
		pos, t, err := s.wal.Stage(rec)
		if err != nil {
			s.led.Unlock()
			return fmt.Errorf("%w: %v", ErrWAL, err)
		}
		sub.walPos = pos
		s.pending[pos] = struct{}{}
		s.inflight[sub.Shard] = t
		ticket = t
	}
	s.admitted[sub.Shard] = true
	s.led.Unlock()
	// Group commit: wait for the batched fsync. Only after this returns
	// is the record durable and the 202 honest. On sync failure nothing
	// was acknowledged, so back the reservation out and send the client
	// elsewhere (any duplicate that waited on the same ticket answers
	// ErrWAL too, never a false receipt).
	if ticket != nil {
		err := ticket.Wait()
		s.led.Lock()
		if s.inflight[sub.Shard] == ticket {
			delete(s.inflight, sub.Shard)
		}
		if err != nil {
			delete(s.admitted, sub.Shard)
			delete(s.pending, sub.walPos)
			s.led.Unlock()
			return fmt.Errorf("%w: fsync: %v", ErrWAL, err)
		}
		s.led.Unlock()
	}
	if s.draining.Load() {
		s.refuse(sub, &s.rejected)
		return ErrDraining
	}
	dropped, res := s.q.Offer(sub)
	for _, d := range dropped {
		s.refuse(d, &s.dropped)
		s.logf("overflow: dropped oldest shard %s (%d captured samples accounted as loss)", d.Shard, d.Captured())
	}
	switch res {
	case OfferClosed:
		// BeginDrain raced with this Submit: same contract as draining —
		// 503, not 429, so the client goes elsewhere instead of retrying
		// a shutting-down instance.
		s.refuse(sub, &s.rejected)
		return ErrDraining
	case OfferFull:
		s.refuse(sub, &s.rejected)
		return ErrQueueFull
	}
	return nil
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
	s.led.Lock()
	s.dupes++
	s.led.Unlock()
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

// refuse backs a shard out of admission (refused at the door or evicted
// by DropOldest): the reservation is released, the refusal counter
// bumped, and — only the first time this shard id is refused — its
// captured samples recorded as aggregate loss under its ledger entry.
// Until refuse runs the shard's reservation stands, so no other
// submission of the same id can be in flight.
func (s *Service) refuse(sub Submission, counter *uint64) {
	n := sub.Captured()
	s.res.Lock()
	defer s.res.Unlock()
	s.led.Lock()
	delete(s.admitted, sub.Shard)
	// The refusal resolves the staged WAL record: it leaves the pending
	// set (the barrier may pass it once the refusal itself is in a
	// checkpoint's ledger). No refusal record is written — on a crash the
	// retained admit record replays as a merge, which conserves the same
	// captured samples as Samples instead of Lost.
	if !sub.walPos.IsZero() {
		delete(s.pending, sub.walPos)
	}
	*counter++
	_, seen := s.refusedLoss[sub.Shard]
	// A refusal racing a seal (the submit slipped past the sealed check
	// before Seal, then found the queue closed) must NOT record loss:
	// the export snapshot may already be encoded, and a loss recorded
	// after it would stand in books that are about to be quarantined —
	// vanishing from the fleet sum. The client got a 503 and retries
	// elsewhere; the pair gets recorded wherever the shard finally lands.
	record := !seen && !s.sealed.Load()
	if record {
		s.refusedLoss[sub.Shard] = n
		s.lostSamp += n
	}
	s.led.Unlock()
	if record {
		// Still under res: a checkpoint snapshot sees the ledger entry and
		// the aggregate loss together or not at all.
		s.agg.RecordLoss(n)
	}
}

// run is the aggregator loop: single consumer, so the merge path itself
// needs no locking beyond SafeDB's.
func (s *Service) run() {
	defer close(s.done)
	for {
		sub, ok := s.q.Wait()
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
	s.led.Lock()
	s.sinceCkpt++
	due := s.cfg.CheckpointPath != "" && s.sinceCkpt >= s.cfg.CheckpointEvery
	s.led.Unlock()
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
// samples as loss when it cannot merge), mark it applied and release its
// WAL position. The caller holds res, so a checkpoint snapshot sees the
// shard fully resolved or not at all; led is taken only for the ledger
// marks, after the aggregate work.
//
// The reversal belongs here and nowhere earlier: an accepted retry can
// still be evicted from the queue (DropOldest), and a loss taken back
// at acceptance would then be owed for samples that never merge.
func (s *Service) resolve(sub Submission) (reversed uint64, err error) {
	reversed, wasRefused := s.refusedLoss[sub.Shard]
	if wasRefused {
		s.agg.ReverseLoss(reversed)
	}
	captured := sub.Captured()
	if err = s.agg.Merge(sub.DB); err != nil {
		// Admission screens configurations, so this is rare (e.g. metric
		// registration skew) — but it still must be accounted, not lost.
		// The shard still joins the applied set: the failure is permanent
		// and deterministic, so a retry must dedupe and a replay must
		// skip (replaying would fail-and-account identically, but only
		// when the checkpoint predates the resolution).
		s.agg.RecordLoss(captured)
	}
	s.led.Lock()
	if wasRefused {
		delete(s.refusedLoss, sub.Shard)
		s.lostSamp -= reversed
		s.lostRev += reversed
	}
	if err != nil {
		s.mergeFail++
		s.lostSamp += captured
	} else {
		s.merged++
	}
	s.applied[sub.Shard] = true
	if !sub.walPos.IsZero() {
		delete(s.pending, sub.walPos)
	}
	s.led.Unlock()
	return reversed, err
}

// checkpoint persists the aggregate through the circuit breaker: an open
// breaker skips the write (counted, retried next cadence) instead of
// stalling ingest on a dead disk.
func (s *Service) checkpoint() {
	err := s.brk.Do(s.cfg.persist)
	s.led.Lock()
	switch {
	case errors.Is(err, ErrBreakerOpen):
		s.ckptShort++
	case err != nil:
		s.ckptFail++
	default:
		s.ckptOK++
		s.sinceCkpt = 0
	}
	s.led.Unlock()
	if err != nil && !errors.Is(err, ErrBreakerOpen) {
		s.logf("checkpoint failed: %v", err)
	}
}

// snapshotCheckpoint captures a consistent checkpoint under res: the
// serialized aggregate, the full ledger, and the WAL barrier (the
// lowest pending position, or the head when nothing is in flight).
// Every step that changes the aggregate or a checkpointed book holds
// res, so for the length of the encode they are frozen together and
// the snapshot can never catch a ledger entry without its aggregate
// delta or vice versa. Admission carries on under led meanwhile: what
// it stages lands at or above the head read here, and the barrier
// stays at or below every position still unresolved. The file write
// happens outside both locks.
func (s *Service) snapshotCheckpoint() (*Checkpoint, error) {
	s.res.Lock()
	defer s.res.Unlock()
	ck := &Checkpoint{
		Applied:         make([]string, 0, len(s.applied)),
		RefusedLoss:     make(map[string]uint64, len(s.refusedLoss)),
		HandoffFrom:     make(map[string]string, len(s.handoffFrom)),
		AppliedHandoffs: make([]string, 0, len(s.appliedHandoffs)),
		HandoffKeys:     make(map[string]uint64, len(s.handoffSeen)),
	}
	if s.wal != nil {
		s.led.Lock()
		ck.Barrier = s.wal.Head()
		for pos := range s.pending {
			if pos.Before(ck.Barrier) {
				ck.Barrier = pos
			}
		}
		s.led.Unlock()
	}
	for sh := range s.applied {
		ck.Applied = append(ck.Applied, sh)
	}
	sort.Strings(ck.Applied)
	for sh, n := range s.refusedLoss {
		ck.RefusedLoss[sh] = n
	}
	for sh, from := range s.handoffFrom {
		ck.HandoffFrom[sh] = from
	}
	for key := range s.appliedHandoffs {
		ck.AppliedHandoffs = append(ck.AppliedHandoffs, key)
	}
	sort.Strings(ck.AppliedHandoffs)
	for key, captured := range s.handoffSeen {
		ck.HandoffKeys[key] = captured
	}
	var buf bytes.Buffer
	if err := s.agg.Save(&buf); err != nil {
		return nil, err
	}
	ck.Profile = buf.Bytes()
	return ck, nil
}

// persistCheckpoint is the WAL-mode persist function: write the PMCK
// envelope atomically, then advance the WAL barrier and reclaim the
// segments the checkpoint now covers. Reclaim failure is logged, not
// fatal — the records are merely redundant, and the next checkpoint
// retries.
func (s *Service) persistCheckpoint() error {
	ck, err := s.snapshotCheckpoint()
	if err != nil {
		return err
	}
	if err := profile.WriteAtomic(s.cfg.CheckpointPath, func(w io.Writer) error {
		return WriteCheckpoint(w, ck)
	}); err != nil {
		return err
	}
	if s.wal != nil && !ck.Barrier.IsZero() {
		if _, err := s.wal.ReclaimBefore(ck.Barrier); err != nil {
			s.logf("wal reclaim below %v failed: %v", ck.Barrier, err)
		}
	}
	return nil
}

// BeginDrain stops admission (Submit starts refusing with ErrDraining)
// without waiting for the backlog. The HTTP layer calls this the moment
// SIGTERM arrives so readiness flips immediately.
func (s *Service) BeginDrain() {
	s.draining.Store(true)
}

// Seal closes admission for a handoff export: new shards are refused
// WITHOUT loss accounting (the export snapshot must be the final word
// on this instance's books), while duplicates of already-admitted
// shards keep answering honestly. The caller runs Flush next, then
// serializes the aggregate; see the export endpoint. Sealing is
// one-way — a donor whose removal aborts restarts its process to
// resume admission, which is the rollback path the runbook documents.
func (s *Service) Seal() {
	s.sealed.Store(true)
	s.draining.Store(true)
}

// Sealed reports whether admission is closed for export.
func (s *Service) Sealed() bool { return s.sealed.Load() }

// Flush is the first half of the graceful-shutdown sequence: stop
// admission and run the queued backlog through the aggregator, without
// persisting. It exists as its own step because a clustered drain must
// interpose between flush and final checkpoint: the fully-merged
// aggregate is handed to the ring successor, and only if that fails is
// the local FinalCheckpoint the fallback durability path.
func (s *Service) Flush(ctx context.Context) error {
	s.BeginDrain()
	s.q.Close()
	if s.started.Load() {
		select {
		case <-s.done:
		case <-ctx.Done():
			return fmt.Errorf("ingest: drain: %w", context.Cause(ctx))
		}
	} else {
		// Never started: flush the backlog inline.
		for {
			sub, ok := s.q.Wait()
			if !ok {
				break
			}
			s.merge(sub)
		}
	}
	return nil
}

// FinalCheckpoint writes the last persist of a drain, bypassing the
// breaker: at shutdown durability outranks availability and a stale
// open state must not discard the run. No-op without a checkpoint path.
func (s *Service) FinalCheckpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	if err := s.cfg.persist(); err != nil {
		return fmt.Errorf("ingest: final checkpoint: %w", err)
	}
	s.led.Lock()
	s.ckptOK++
	s.led.Unlock()
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
	if s.cfg.CheckpointPath != "" {
		s.logf("drained: %d samples aggregated, %d lost (%.1f%% loss), final checkpoint at %s",
			s.agg.Samples(), s.agg.Lost(), 100*s.agg.LossRate(), s.cfg.CheckpointPath)
	}
	return nil
}

// AcceptHandoff merges a draining peer's aggregate and admission ledger
// into this instance — the tier's zero-loss rolling-restart path. The
// donor's shard ids join the admitted ledger (with provenance) BEFORE
// the merge, so a client retry racing the handoff dedupes instead of
// double-merging; the donor's loss ledger rides inside its DB, keeping
// the fleet-wide conservation sum intact. Returns the captured total
// (delivered + lost) that migrated. A draining or already-handed-off
// receiver refuses: the donor must walk to the next ring successor.
func (s *Service) AcceptHandoff(h Handoff) (captured uint64, err error) {
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	if s.handedOff.Load() {
		return 0, ErrHandedOff
	}
	if s.draining.Load() {
		return 0, ErrDraining
	}
	// Envelope-level dedupe: a byte-identical redelivery (the sender
	// retrying after a lost 202) answers ErrDuplicate with the captured
	// count the original acknowledged — merging it again would count the
	// donor's whole aggregate twice. Checked before the config screen so
	// even a sender whose retry raced a local config change dedupes.
	if h.Key != "" {
		s.led.Lock()
		if prev, seen := s.handoffSeen[h.Key]; seen {
			s.dupes++
			s.led.Unlock()
			return prev, ErrDuplicate
		}
		s.led.Unlock()
	}
	if err := s.compatible(h.DB); err != nil {
		return 0, err
	}
	captured = h.DB.Samples() + h.DB.Lost()
	// WAL the whole handoff before applying it, like Submit: the donor
	// only quarantines its own durable state after our 200, so the
	// migrated samples must be durable here first. The record is keyed
	// by its WAL position (stable across replays) so a replay after a
	// crash applies it exactly once.
	var pos wal.Pos
	if s.wal != nil {
		rec, err := encodeHandoffRecord(h)
		if err != nil {
			return 0, fmt.Errorf("%w: encode handoff: %v", ErrWAL, err)
		}
		if pos, err = s.stageAndWait(rec); err != nil {
			return 0, err
		}
	}
	s.res.Lock()
	mergeErr := s.applyHandoff(h, captured, pos)
	s.led.Lock()
	due := mergeErr == nil && s.cfg.CheckpointPath != "" && s.sinceCkpt >= s.cfg.CheckpointEvery
	s.led.Unlock()
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

// stageAndWait makes one control-plane WAL record (handoff, adoption)
// durable: staged with its position entering the pending set in the
// same critical section, then the group commit awaited outside any
// lock. The position stays pending — holding the checkpoint barrier —
// until the caller applies the record; a failed commit releases it.
func (s *Service) stageAndWait(rec []byte) (wal.Pos, error) {
	s.led.Lock()
	pos, ticket, err := s.wal.Stage(rec)
	if err != nil {
		s.led.Unlock()
		return wal.Pos{}, fmt.Errorf("%w: %v", ErrWAL, err)
	}
	s.pending[pos] = struct{}{}
	s.led.Unlock()
	if err := ticket.Wait(); err != nil {
		s.led.Lock()
		delete(s.pending, pos)
		s.led.Unlock()
		return wal.Pos{}, fmt.Errorf("%w: fsync: %v", ErrWAL, err)
	}
	return pos, nil
}

// applyHandoff folds a handoff into ledger and aggregate — shared
// verbatim by the live path and WAL replay so a replayed handoff
// reconstructs the identical state. The caller holds res, which makes
// the whole fold one step to a checkpoint snapshot; the donor's shard
// ids join the admitted ledger BEFORE the merge, so a client retry
// racing the handoff dedupes instead of double-merging. pos is the
// handoff's WAL record (zero without a WAL): it is marked applied and
// leaves the pending set with the rest of the fold.
func (s *Service) applyHandoff(h Handoff, captured uint64, pos wal.Pos) error {
	s.led.Lock()
	for _, sh := range h.Shards {
		if !s.admitted[sh] {
			s.admitted[sh] = true
			s.handoffFrom[sh] = h.From
		}
	}
	if h.Key != "" {
		s.handoffSeen[h.Key] = captured
	}
	s.handoffsIn++
	s.handoffCapt += captured
	s.led.Unlock()
	err := s.agg.Merge(h.DB)
	if err != nil {
		// Past the config screen a merge failure is metric-set skew:
		// conserve by accounting the donor's whole captured population as
		// loss rather than silently dropping it from the fleet sum.
		s.agg.RecordLoss(captured)
	}
	s.led.Lock()
	if err != nil {
		s.mergeFail++
		s.lostSamp += captured
	} else {
		s.sinceCkpt++
	}
	if !pos.IsZero() {
		s.appliedHandoffs[pos.String()] = true
		delete(s.pending, pos)
	}
	s.led.Unlock()
	return err
}

// AdoptShards takes over dedupe obligations for shards whose ring
// ownership moved here during a membership change: each previously
// unknown shard id joins the admitted ledger with provenance `from`, so
// a client retry of a shard the old owner already merged answers
// 202+duplicate here instead of double-merging. No samples move —
// adoption is pure ledger. The adoption is WAL-durable before it
// returns (the router commits the ring change only after every adoption
// acked, so the ack must survive a crash). Returns how many ids were
// newly adopted; already-admitted ids are skipped silently.
func (s *Service) AdoptShards(from string, shards []string) (int, error) {
	if s.handedOff.Load() {
		return 0, ErrHandedOff
	}
	if s.sealed.Load() {
		return 0, ErrDraining
	}
	// Filter to the unseen ids first so the WAL record holds exactly
	// what this call changes (replay then reconstructs the same state
	// whether or not earlier records already admitted some of them).
	s.led.Lock()
	fresh := make([]string, 0, len(shards))
	for _, sh := range shards {
		if !s.admitted[sh] {
			fresh = append(fresh, sh)
		}
	}
	s.led.Unlock()
	if len(fresh) == 0 {
		return 0, nil
	}
	var pos wal.Pos
	if s.wal != nil {
		rec, err := encodeAdoptRecord(from, fresh)
		if err != nil {
			return 0, fmt.Errorf("%w: encode adopt: %v", ErrWAL, err)
		}
		if pos, err = s.stageAndWait(rec); err != nil {
			return 0, err
		}
	}
	s.res.Lock()
	n := s.adopt(from, fresh, pos)
	s.res.Unlock()
	if n > 0 {
		s.logf("adopted %d shard ids from %s (ledger only; their samples live elsewhere)", n, from)
	}
	return n, nil
}

// adopt installs the not-yet-admitted ids of shards with provenance
// from and releases the adoption's WAL position — shared by the live
// path and WAL replay. Naturally idempotent: an already-admitted shard
// keeps its standing entry. The caller holds res (handoffFrom is a
// checkpointed book).
func (s *Service) adopt(from string, shards []string, pos wal.Pos) int {
	s.led.Lock()
	defer s.led.Unlock()
	n := 0
	for _, sh := range shards {
		if !s.admitted[sh] {
			s.admitted[sh] = true
			s.handoffFrom[sh] = from
			n++
		}
	}
	s.adopted += uint64(n)
	if !pos.IsZero() {
		delete(s.pending, pos)
	}
	return n
}

// MarkHandedOff records that this instance's aggregate has been shipped
// to its ring successor; Stats report it and the daemon skips the final
// checkpoint (a restart from it would double-count the migrated
// samples).
func (s *Service) MarkHandedOff() { s.handedOff.Store(true) }

// HandedOff reports whether the aggregate has been handed off.
func (s *Service) HandedOff() bool { return s.handedOff.Load() }

// AdmittedShards returns the shard ids currently admitted (queued or
// merged), sorted — the ledger a drain handoff ships so the successor
// keeps deduping the donor's shards.
func (s *Service) AdmittedShards() []string {
	s.led.Lock()
	defer s.led.Unlock()
	out := make([]string, 0, len(s.admitted))
	for sh := range s.admitted {
		out = append(out, sh)
	}
	sort.Strings(out)
	return out
}

// HandoffProvenance reports which donor instance a shard id arrived
// from via drain handoff ("" when the shard was submitted directly or
// is unknown).
func (s *Service) HandoffProvenance(shard string) string {
	s.led.Lock()
	defer s.led.Unlock()
	return s.handoffFrom[shard]
}

// AppliedShards returns the shard ids the aggregator has RESOLVED here
// (merged, or merge-failed with loss accounted), sorted. Together with
// RefusedLosses and the handoff-captured counter this is one side of
// the per-instance conservation equation the nemesis audits:
//
//	Σ captured(applied) + Σ refusedLoss + handoffCaptured == Samples + Lost
func (s *Service) AppliedShards() []string {
	s.led.Lock()
	defer s.led.Unlock()
	out := make([]string, 0, len(s.applied))
	for sh := range s.applied {
		out = append(out, sh)
	}
	sort.Strings(out)
	return out
}

// RefusedLosses returns a copy of the standing-refusal ledger: shard id
// -> captured samples recorded as loss here and not (yet) reversed.
func (s *Service) RefusedLosses() map[string]uint64 {
	s.led.Lock()
	defer s.led.Unlock()
	out := make(map[string]uint64, len(s.refusedLoss))
	for sh, n := range s.refusedLoss {
		out[sh] = n
	}
	return out
}

// AdoptedFrom returns a copy of the handoff-provenance map (shard id ->
// donor) for the ledger endpoint's disposition section.
func (s *Service) AdoptedFrom() map[string]string {
	s.led.Lock()
	defer s.led.Unlock()
	out := make(map[string]string, len(s.handoffFrom))
	for sh, from := range s.handoffFrom {
		out[sh] = from
	}
	return out
}

// Stats returns a snapshot of every counter the service keeps.
func (s *Service) Stats() Stats {
	s.led.Lock()
	st := Stats{
		Merged:             s.merged,
		MergeFailed:        s.mergeFail,
		OverloadRejected:   s.rejected,
		OverloadDropped:    s.dropped,
		Duplicates:         s.dupes,
		SamplesLost:        s.lostSamp,
		LossReversed:       s.lostRev,
		Checkpoints:        s.ckptOK,
		CheckpointFailures: s.ckptFail,
		CheckpointShorted:  s.ckptShort,
		HandoffsIn:         s.handoffsIn,
		HandoffCaptured:    s.handoffCapt,
		AdoptedShards:      s.adopted,
	}
	s.led.Unlock()
	st.Queue = s.q.Stats()
	st.Breaker = s.brk.Stats()
	st.Draining = s.draining.Load()
	st.Sealed = s.sealed.Load()
	st.HandedOff = s.handedOff.Load()
	st.WAL = s.WALHealth()
	// One lock-free counters snapshot (an atomic view load, no lock at
	// all) instead of three separate aggregate reads: stats polls never
	// contend with merges under flood.
	c := s.agg.CountersSnapshot()
	st.Samples = c.Samples
	st.Lost = c.Lost
	st.LossRate = c.LossRate
	st.Sketch = s.agg.SketchStats()
	return st
}

// replayRecord is the wal.Open apply callback: reconstruct one record's
// effect through the ledger's skip logic. It runs single-threaded
// during construction, before Start; the locks are still taken so the
// apply helpers shared with the live path stay uniform. An
// undecodable-but-CRC-valid record is an encoder bug or format skew —
// recovery fails loudly rather than guessing at acknowledged data.
func (s *Service) replayRecord(pos wal.Pos, payload []byte) error {
	kind, sub, h, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	s.res.Lock()
	defer s.res.Unlock()
	switch kind {
	case walKindAdmit:
		s.replayAdmit(sub)
	case walKindHandoff:
		s.replayHandoff(pos, h)
	case walKindAdopt:
		// An adoption that raced the checkpoint barrier replays to the
		// same state (see adopt).
		s.adopt(h.From, h.Shards, wal.Pos{})
		s.replayedRecords++
	}
	return nil
}

// replayAdmit re-applies one admit record. Skip rules keep replay
// idempotent against the checkpoint and against duplicate records: an
// already-resolved shard is covered by the checkpoint image; anything
// else resolves exactly as a live merge would (a standing refusal is
// reversed, then the payload merges). A submission that was refused
// pre-crash therefore replays as a merge — its captured samples count
// once either way, as Samples instead of Lost. Caller holds res.
func (s *Service) replayAdmit(sub Submission) {
	s.led.Lock()
	s.admitted[sub.Shard] = true
	resolved := s.applied[sub.Shard]
	s.led.Unlock()
	if resolved {
		return
	}
	s.resolve(sub) // merge failure is accounted inside
	s.replayedRecords++
}

// replayHandoff re-applies one handoff record unless its position is
// already in the checkpoint's applied-handoffs set. The content-key
// check covers the other crash window: a duplicate delivery whose FIRST
// copy is in the checkpoint but whose second copy's WAL record survived
// the barrier — the positions differ, the keys do not. Caller holds res.
func (s *Service) replayHandoff(pos wal.Pos, h Handoff) {
	if s.appliedHandoffs[pos.String()] {
		return
	}
	if h.Key != "" {
		if _, seen := s.handoffSeen[h.Key]; seen {
			s.led.Lock()
			s.appliedHandoffs[pos.String()] = true
			s.led.Unlock()
			return
		}
	}
	captured := h.DB.Samples() + h.DB.Lost()
	_ = s.applyHandoff(h, captured, pos) // merge failure is accounted inside
	s.replayedRecords++
}

// WALHealth snapshots the WAL's health section, nil when disabled.
func (s *Service) WALHealth() *WALHealth {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	s.led.Lock()
	pending := len(s.pending)
	s.led.Unlock()
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
	if s.wal == nil {
		return false
	}
	return s.wal.Stats().OldestPendingAge > s.cfg.WALStallAfter
}

// WALWedged reports whether the WAL has wedged on a write or fsync
// failure: every submission answers ErrWAL until this process restarts
// and replays. Readiness must degrade the instance so the router steers
// submissions to its ring successors. Always false with the WAL
// disabled.
func (s *Service) WALWedged() bool {
	if s.wal == nil {
		return false
	}
	return s.wal.Stats().Wedged
}

// CloseWAL syncs and closes the write-ahead log (no-op when disabled).
// Call after Drain: a closed WAL refuses further appends.
func (s *Service) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// QuarantineWALDir closes the WAL and renames its directory aside with
// the given suffix (e.g. ".handedoff"). After a successful drain
// handoff the migrated samples live at the successor; a restart that
// replayed this WAL would double-count them, so the whole log is set
// aside exactly like the checkpoint.
func (s *Service) QuarantineWALDir(suffix string) error {
	if s.wal == nil {
		return nil
	}
	dir := s.wal.Dir()
	if err := s.wal.Close(); err != nil {
		return err
	}
	return os.Rename(dir, dir+suffix)
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "ingest: "+format+"\n", args...)
}
