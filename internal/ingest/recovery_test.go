package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// aggDigest returns the aggregate's canonical serialized bytes —
// profile.Save is deterministic (PCs sorted), so equal digests mean
// equal databases.
func aggDigest(t *testing.T, s *Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Aggregate().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// conserve asserts the invariant over an explicit shard set:
// Σ captured(distinct shards) == Samples + Lost.
func conserve(t *testing.T, s *Service, want uint64, label string) {
	t.Helper()
	c := s.Aggregate().CountersSnapshot()
	if got := c.Samples + c.Lost; got != want {
		t.Fatalf("%s: conservation violated: samples %d + lost %d = %d, want %d",
			label, c.Samples, c.Lost, got, want)
	}
}

// TestRecoverWALOnly crashes an instance with its whole backlog still
// queued (aggregator never started — nothing merged, nothing
// checkpointed) and verifies recovery rebuilds every acknowledged
// submission from the WAL alone, with post-crash retries deduping.
func TestRecoverWALOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{QueueDepth: 16, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	subs := make([]Submission, 5)
	for i := range subs {
		subs[i] = sub(fmt.Sprintf("shard-%d", i), uint64(i), 20+i)
		want += subs[i].Captured()
		if err := s1.Submit(subs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Crash: drop the in-memory state (queue included); only what the
	// WAL fsynced survives.
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if info.CheckpointLoaded || info.Replayed != 5 {
		t.Fatalf("recovery info %+v, want 5 replayed and no checkpoint", info)
	}
	conserve(t, s2, want, "after recovery")
	if lost := s2.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("crash-attributed loss: %d lost samples after recovery", lost)
	}
	// The 202s promised these shards are in: retries must dedupe.
	for i := range subs {
		resub := Submission{Shard: subs[i].Shard, DB: testShard(uint64(i), 20+i)}
		if err := s2.Submit(resub); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("post-crash retry of shard-%d: err=%v, want ErrDuplicate", i, err)
		}
	}
	conserve(t, s2, want, "after post-crash retries")
}

// TestRecoverCheckpointPlusTail checkpoints part of the stream, crashes
// with the rest queued, and verifies replay skips what the checkpoint
// covers and re-applies only the tail — no double count, no loss.
func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	mergedSoFar := 0
	cfg := Config{
		QueueDepth:     16,
		Interval:       16,
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt.db"),
		mergeHook: func(Submission) {
			if mergedSoFar >= 3 {
				once.Do(func() { close(gate) })
				select {} // aggregator wedged: simulates the crash point
			}
			mergedSoFar++
		},
	}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	var want uint64
	for i := 0; i < 6; i++ {
		sb := sub(fmt.Sprintf("shard-%d", i), uint64(i), 15+i)
		want += sb.Captured()
		if err := s1.Submit(sb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	<-gate // 3 merged and checkpointed; the rest queued
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if !info.CheckpointLoaded {
		t.Fatalf("recovery info %+v: checkpoint not loaded", info)
	}
	if info.Replayed >= 6 {
		t.Fatalf("replayed %d records; checkpoint coverage not honored", info.Replayed)
	}
	conserve(t, s2, want, "checkpoint+tail recovery")
	if lost := s2.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("crash-attributed loss: %d", lost)
	}
	for i := 0; i < 6; i++ {
		resub := Submission{Shard: fmt.Sprintf("shard-%d", i), DB: testShard(uint64(i), 15+i)}
		if err := s2.Submit(resub); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("retry of shard-%d: err=%v, want ErrDuplicate", i, err)
		}
	}
	conserve(t, s2, want, "after retries")
}

// TestReplayLoadsOnlyAppliedRecords: replay decides a record's skip on
// its head alone, so the profile of an admit record the checkpoint
// covers is never decoded — here it is not even a profile — while the
// tail record is loaded and merged.
func TestReplayLoadsOnlyAppliedRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Interval: 16, WALDir: filepath.Join(dir, "wal"), CheckpointPath: filepath.Join(dir, "ckpt.db")}
	var empty bytes.Buffer
	if err := profile.NewDB(16, 0, 4).Save(&empty); err != nil {
		t.Fatal(err)
	}
	if err := profile.WriteAtomic(cfg.CheckpointPath, func(w io.Writer) error {
		return WriteCheckpoint(w, &Checkpoint{Profile: empty.Bytes(), Applied: []string{"covered"}})
	}); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(wal.Config{Dir: cfg.WALDir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail := testShard(1, 20)
	covered, err := encodeRecord(record{Kind: walKindAdmit, Shard: "covered", Profile: []byte("not a profile")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := encodeRecord(record{Kind: walKindAdmit, Shard: "tail"}, tail.Save)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{covered, applied} {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, info, err := Recover(cfg)
	if err != nil {
		t.Fatalf("recover loaded a covered record: %v", err)
	}
	defer s.CloseWAL()
	if info.Replayed != 1 {
		t.Fatalf("replayed %d records, want the tail's 1", info.Replayed)
	}
	conserve(t, s, tail.Samples()+tail.Lost(), "after replay")
}

// TestRecoverRefusedShardReplaysAsMerge crashes with one shard refused
// (queue full, loss accounted). Replay merges the refused shard's
// durable payload instead — the captured samples count once, as Samples
// rather than Lost, and conservation holds exactly.
func TestRecoverRefusedShardReplaysAsMerge(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{QueueDepth: 1, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sub("shard-a", 1, 30), sub("shard-b", 2, 40)
	if err := s1.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit: err=%v, want ErrQueueFull", err)
	}
	// Pre-crash the refusal stands as loss.
	if got := s1.Aggregate().CountersSnapshot().Lost; got != b.Captured() {
		t.Fatalf("pre-crash lost %d, want %d", got, b.Captured())
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	conserve(t, s2, a.Captured()+b.Captured(), "refused-shard recovery")
	if lost := s2.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("refused shard still accounted as loss (%d) though its payload was durable", lost)
	}
	if err := s2.Submit(Submission{Shard: "shard-b", DB: testShard(2, 40)}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("retry of recovered refused shard: err=%v, want ErrDuplicate", err)
	}
}

// TestRecoverHandoffRecord WALs a drain handoff, crashes, and verifies
// the recovered instance has the donor's samples and dedupes the
// donor's shards; a second recovery (after a checkpoint) must not
// double-apply the handoff.
func TestRecoverHandoffRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		QueueDepth:     8,
		Interval:       16,
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt.db"),
		// Far cadence: the handoff must recover from the WAL record, not
		// from an immediate checkpoint.
		CheckpointEvery: 100,
	}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	donor := profile.NewDB(16, 0, 4)
	if err := donor.Merge(testShard(7, 25)); err != nil {
		t.Fatal(err)
	}
	donor.RecordLoss(5)
	captured := donor.Samples() + donor.Lost()
	h := Handoff{From: "collector-9", DB: donor, Shards: []string{"donor/s1", "donor/s2"}}
	if got, err := s1.AcceptHandoff(h); err != nil || got != captured {
		t.Fatalf("accept handoff: got %d err %v", got, err)
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 {
		t.Fatalf("replayed %d, want the 1 handoff record", info.Replayed)
	}
	conserve(t, s2, captured, "handoff recovery")
	if err := s2.Submit(Submission{Shard: "donor/s1", DB: testShard(7, 10)}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("donor shard after recovery: err=%v, want ErrDuplicate", err)
	}
	if s2.Ledger().AdoptedFrom["donor/s2"] != "collector-9" {
		t.Fatal("handoff provenance lost through recovery")
	}
	digest := aggDigest(t, s2)
	// Checkpoint now covers the handoff; a further recovery must skip it.
	if err := s2.FinalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s3, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.CloseWAL()
	if !bytes.Equal(digest, aggDigest(t, s3)) {
		t.Fatal("handoff double-applied across checkpointed recovery")
	}
}

// TestReplayIdempotence recovers the same durable state twice and
// demands bit-identical aggregates: replay twice == replay once.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{QueueDepth: 16, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := s1.Submit(sub(fmt.Sprintf("s-%d", i), uint64(i*13), 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2 := aggDigest(t, s2)
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s3, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.CloseWAL()
	if !bytes.Equal(d2, aggDigest(t, s3)) {
		t.Fatal("two recoveries from identical durable state diverged")
	}
}

// TestPrefixConservationProperty is the torn-write property test: for a
// WAL built from a randomized mix of accepts, refusals, and retries,
// EVERY prefix cut at a record boundary (a crash can land anywhere)
// must recover to a conservation-consistent state — Σ captured over the
// distinct shards whose records survive == Samples + Lost.
func TestPrefixConservationProperty(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := Config{QueueDepth: 2, Interval: 16, WALDir: walDir}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 24; i++ {
		shard := fmt.Sprintf("p-%d", rng.Intn(8)) // collisions: duplicates and retries
		err := s1.Submit(Submission{Shard: shard, DB: testShard(uint64(i), 5+rng.Intn(20))})
		if err != nil && !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Collect record boundaries and per-record shard populations.
	type recMeta struct {
		end      int64
		shard    string
		captured uint64
	}
	var recs []recMeta
	if _, err := wal.Replay(walDir, func(pos wal.Pos, payload []byte) error {
		if pos.Seg != 1 {
			t.Fatalf("test assumes a single segment, record at %v", pos)
		}
		kind, sb, _, err := decodeWALRecord(payload)
		if err != nil || kind != walKindAdmit {
			t.Fatalf("unexpected record %q err %v", kind, err)
		}
		recs = append(recs, recMeta{shard: sb.Shard, captured: sb.Captured()})
		if len(recs) > 1 {
			recs[len(recs)-2].end = pos.Off
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 8 {
		t.Fatalf("only %d WAL records; want a meaty stream", len(recs))
	}
	segBytes, err := os.ReadFile(filepath.Join(walDir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs[len(recs)-1].end = int64(len(segBytes))

	for k := 0; k <= len(recs); k++ {
		cut := int64(16) // segment header only
		if k > 0 {
			cut = recs[k-1].end
		}
		pdir := filepath.Join(dir, fmt.Sprintf("prefix-%02d", k))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pdir, "wal-0000000000000001.log"), segBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		seen := map[string]bool{}
		for _, r := range recs[:k] {
			if !seen[r.shard] {
				seen[r.shard] = true
				want += r.captured
			}
		}
		pcfg := Config{QueueDepth: 2, Interval: 16, WALDir: pdir}
		s, info, err := Recover(pcfg)
		if err != nil {
			t.Fatalf("prefix %d: recover: %v", k, err)
		}
		if info.Replay.Records != k {
			t.Fatalf("prefix %d: replayed %d records", k, info.Replay.Records)
		}
		conserve(t, s, want, fmt.Sprintf("prefix %d", k))
		s.CloseWAL()
	}
}

// TestRecoverTornTail garbles the WAL tail (a crash mid-append) and
// verifies recovery conserves the intact prefix and keeps serving.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := Config{QueueDepth: 8, Interval: 16, WALDir: walDir}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 4; i++ {
		sb := sub(fmt.Sprintf("t-%d", i), uint64(i), 12)
		want += sb.Captured()
		if err := s1.Submit(sb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(walDir, "wal-0000000000000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if !info.Replay.Truncated || info.Replayed != 4 {
		t.Fatalf("recovery info %+v, want truncation with all 4 intact records applied", info)
	}
	conserve(t, s2, want, "torn tail")
	if err := s2.Submit(sub("t-new", 99, 7)); err != nil {
		t.Fatalf("submit after torn-tail repair: %v", err)
	}
}

// TestDuplicateWaitsForOriginalDurability pins the 202+duplicate
// contract: a resubmission of a shard whose ORIGINAL submission is
// still inside its group commit must not be acknowledged until that
// commit lands — and when the commit's fsync fails, the duplicate must
// fail too. Answering ErrDuplicate from the admitted[] reservation
// alone would hand the retrier a 202 for a shard durable nowhere.
func TestDuplicateWaitsForOriginalDurability(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	entered := make(chan struct{}) // fsync reached, original parked
	release := make(chan struct{}) // closing delivers the verdict
	injected := errors.New("injected fsync EIO")
	cfg := Config{
		QueueDepth: 8,
		Interval:   16,
		WALDir:     filepath.Join(dir, "wal"),
		walFsync: func(f *os.File) error {
			if !armed.Load() {
				return f.Sync() // segment-creation syncs during Open
			}
			entered <- struct{}{}
			<-release
			return injected
		},
	}
	s, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	armed.Store(true)

	orig := make(chan error, 1)
	go func() { orig <- s.Submit(sub("dup-race", 1, 5)) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("original never reached fsync")
	}

	// Original is parked inside its commit. The duplicate must block on
	// the original's ticket, not answer from the reservation.
	dup := make(chan error, 1)
	go func() { dup <- s.Submit(sub("dup-race", 1, 5)) }()
	select {
	case err := <-dup:
		t.Fatalf("duplicate answered (%v) before the original's fsync returned", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // fsync fails: nobody gets a durability receipt
	for i, ch := range []chan error{orig, dup} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("waiter %d: err=%v, want ErrWAL", i, err)
			}
			if errors.Is(err, ErrDuplicate) {
				t.Fatalf("waiter %d acknowledged a shard durable nowhere", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d never released", i)
		}
	}
	if h := s.Stats().WAL; h == nil || !h.Wedged {
		t.Fatalf("stats WAL section %+v, want Wedged", h)
	}
}

// TestWALStallSignal holds one submission's fsync with nothing else
// staged — a single client, or its retry deduped onto the same ticket —
// and requires health to read the hung verdict as a stall, then clear
// once the verdict lands.
func TestWALStallSignal(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := Config{
		QueueDepth:    8,
		Interval:      16,
		WALDir:        filepath.Join(dir, "wal"),
		WALStallAfter: 10 * time.Millisecond,
		walFsync: func(f *os.File) error {
			if armed.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
			return f.Sync()
		},
	}
	s, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()
	if s.Stats().WAL.Stalled {
		t.Fatal("fresh WAL reported stalled")
	}
	armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- s.Submit(sub("stall-1", 1, 5)) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("submit never reached fsync")
	}
	deadline := time.After(2 * time.Second)
	for !s.Stats().WAL.Stalled {
		select {
		case <-deadline:
			h := s.Stats().WAL
			t.Fatalf("fsync held 2s: stalled=%v pending=%d oldest_pending_age_ms=%d", h.Stalled, h.PendingRecords, h.OldestPendingAgeMS)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if h := s.Stats().WAL; h == nil || !h.Stalled || h.OldestPendingAgeMS < 10 {
		t.Fatalf("stats WAL section %+v, want Stalled", h)
	}
	unhold()
	if err := <-done; err != nil {
		t.Fatalf("submit after the verdict: %v", err)
	}
	if s.Stats().WAL.Stalled {
		t.Fatal("WAL still stalled after the verdict landed")
	}
}
