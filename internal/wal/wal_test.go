package wal

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect replays dir into an ordered list of (pos, payload copies).
type replayed struct {
	pos     Pos
	payload []byte
}

func collect(t *testing.T, dir string) ([]replayed, ReplayInfo) {
	t.Helper()
	var out []replayed
	info, err := Replay(dir, func(pos Pos, payload []byte) error {
		out = append(out, replayed{pos, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out, info
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 {
		t.Fatalf("fresh log replayed %d records", info.Records)
	}
	var want [][]byte
	var positions []Pos
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i))))
		want = append(want, p)
		pos, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		positions = append(positions, pos)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, rinfo := collect(t, dir)
	if rinfo.Truncated {
		t.Fatalf("clean log reported truncation at %v", rinfo.TruncatedAt)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].payload, want[i]) {
			t.Fatalf("record %d: payload mismatch", i)
		}
		if got[i].pos != positions[i] {
			t.Fatalf("record %d: pos %v on replay, %v at append — positions must be stable", i, got[i].pos, positions[i])
		}
	}

	// Replay is idempotent: a second scan yields the identical sequence.
	again, _ := collect(t, dir)
	if len(again) != len(got) {
		t.Fatalf("second replay %d records, first %d", len(again), len(got))
	}
	for i := range got {
		if again[i].pos != got[i].pos || !bytes.Equal(again[i].payload, got[i].payload) {
			t.Fatalf("replay not idempotent at record %d", i)
		}
	}
}

func TestReopenAppendsContinue(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 {
		t.Fatalf("reopen replayed %d records, want 1", info.Records)
	}
	if _, err := l2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != 2 || string(got[0].payload) != "first" || string(got[1].payload) != "second" {
		t.Fatalf("reopened log replayed %d records", len(got))
	}
}

func TestSegmentRotationAndReclaim(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	var lastPos Pos
	for i := 0; i < 20; i++ {
		pos, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		lastPos = pos
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", st.Segments)
	}
	all, _ := collect(t, dir)
	if len(all) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(all))
	}

	// Reclaim everything below the last record's segment: older segment
	// files disappear, the survivors still replay.
	removed, err := l.ReclaimBefore(Pos{Seg: lastPos.Seg, Off: 0})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("reclaim removed nothing")
	}
	left, _ := collect(t, dir)
	if len(left) == 0 || len(left) >= 20 {
		t.Fatalf("after reclaim %d records remain (want a proper subset)", len(left))
	}
	for _, r := range left {
		if r.pos.Seg < lastPos.Seg {
			t.Fatalf("record %v survived below the barrier segment %d", r.pos, lastPos.Seg)
		}
	}
	// The barrier never moves backwards.
	if n, err := l.ReclaimBefore(Pos{Seg: 1, Off: 0}); err != nil || n != 0 {
		t.Fatalf("backwards reclaim removed %d (%v)", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncated crashes mid-record (simulated by appending junk
// bytes to the active segment) and verifies Open repairs: the intact
// prefix replays, the tail is truncated, and new appends land cleanly.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear: half a record header worth of garbage at the tail.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var n int
	l2, info, err := Open(Config{Dir: dir}, func(Pos, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || !info.Truncated {
		t.Fatalf("repair replay: %d records, truncated=%v; want 5, true", n, info.Truncated)
	}
	if _, err := l2.Append([]byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, rinfo := collect(t, dir)
	if rinfo.Truncated {
		t.Fatalf("repaired log still truncated at %v", rinfo.TruncatedAt)
	}
	if len(got) != 6 || string(got[5].payload) != "after-repair" {
		t.Fatalf("after repair: %d records", len(got))
	}
}

// TestBitFlipTruncatesAndQuarantines corrupts a record in the FIRST of
// several segments: replay must stop there and Open must quarantine the
// later segments rather than let un-replayable acknowledged records
// silently reappear after future appends.
func TestBitFlipTruncatesAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 50)
	for i := 0; i < 8; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("test needs >= 2 segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in segment 1.
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderBytes+recHeaderBytes+10] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var n int
	_, info, err := Open(Config{Dir: dir}, func(Pos, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records past a bit flip in the first record", n)
	}
	if !info.Truncated || info.Quarantined == 0 {
		t.Fatalf("info = %+v; want truncation plus quarantined later segments", info)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".quarantined" {
			quarantined++
		}
	}
	if quarantined != info.Quarantined {
		t.Fatalf("%d *.quarantined files on disk, info says %d", quarantined, info.Quarantined)
	}
}

// holdFirstFsync returns an Fsync seam that passes through until armed,
// then parks the first armed call — announcing it on entered — until
// release closes, and passes through again after it.
func holdFirstFsync() (fsync func(*os.File) error, armed *atomic.Bool, entered chan struct{}, release chan struct{}) {
	armed = new(atomic.Bool)
	entered, release = make(chan struct{}), make(chan struct{})
	return func(f *os.File) error {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return f.Sync()
	}, armed, entered, release
}

// waitEntered fails the test unless a held fsync is reached in time.
func waitEntered(t *testing.T, entered chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no verdict reached fsync")
	}
}

// TestGroupCommit proves batching without a timer: while the first
// verdict is held in fsync, every other appender stages into the next
// batch, and the whole set commits in exactly two verdicts.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	fsync, armed, entered, release := holdFirstFsync()
	l, _, err := Open(Config{Dir: dir, Fsync: fsync}, nil)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	const workers = 8
	errs := make(chan error, workers)
	appendOne := func(w int) {
		_, err := l.Append([]byte(fmt.Sprintf("w%d", w)))
		errs <- err
	}
	go appendOne(0)
	waitEntered(t, entered)
	for w := 1; w < workers; w++ {
		go appendOne(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Appends < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d appenders staged", l.Stats().Appends, workers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Appends != workers || st.Syncs != 2 {
		t.Fatalf("%d appends in %d verdicts, want %d in 2", st.Appends, st.Syncs, workers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir); len(got) != workers {
		t.Fatalf("replayed %d records, want %d", len(got), workers)
	}
}

func TestStageTicketDurability(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos, ticket, err := l.Stage([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	if head := l.Head(); !pos.Before(head) {
		t.Fatalf("staged pos %v not before head %v", pos, head)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir); len(got) != 1 || got[0].pos != pos {
		t.Fatalf("staged record did not survive: %v", got)
	}
}

// TestStageKeepsNoPayload: a caller may overwrite a payload as soon as
// Stage returns, before the group commit; the log holds the bytes it was
// given, not the buffer.
func TestStageKeepsNoPayload(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	var want [][]byte
	var tickets []*Ticket
	for i := 0; i < 20; i++ {
		buf = append(buf[:0], fmt.Sprintf("record-%02d-", i)...)
		buf = append(buf, bytes.Repeat([]byte{byte('a' + i)}, 100*i)...)
		want = append(want, append([]byte(nil), buf...))
		_, ticket, err := l.Stage(buf)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xFF
		}
		tickets = append(tickets, ticket)
	}
	for _, ticket := range tickets {
		if err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].payload, want[i]) {
			t.Fatalf("record %d replayed %.20q..., staged %.20q...", i, got[i].payload, want[i])
		}
	}
}

func TestRecordCap(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, maxRecordBytes: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(bytes.Repeat([]byte("z"), 17)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestClosedLogRefuses(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncFailureWedges: a failed group-commit fsync must wedge the
// log exactly like a failed write. After an fsync EIO the kernel can
// mark the lost pages clean, so a later fsync would SUCCEED and
// acknowledge records physically after the lost ones — which replay
// (truncate at first invalid frame) would then silently discard. The
// only safe answer is: fail the batch, refuse everything after.
func TestFsyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	injected := errors.New("injected fsync EIO")
	cfg := Config{Dir: dir, Fsync: func(f *os.File) error {
		if failing.Load() {
			return injected
		}
		return f.Sync()
	}}
	l, _, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}

	failing.Store(true)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, injected) {
		t.Fatalf("append through failed fsync: err %v, want %v", err, injected)
	}
	if st := l.Stats(); !st.Wedged || st.SyncErrors == 0 {
		t.Fatalf("failed fsync did not wedge: %+v", st)
	}

	// The disk "recovers" — fsync would succeed again, exactly the
	// EIO-marks-pages-clean hazard. The log must still refuse: a success
	// now could acknowledge a record after the lost one.
	failing.Store(false)
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("wedged log accepted an append after fsync recovered")
	}
	if _, _, err := l.Stage([]byte("staged")); err == nil {
		t.Fatal("wedged log staged a record")
	}
	l.Close() // errors (wedged) — the assertion is replay below

	// Restart-side replay keeps exactly the acknowledged prefix.
	var got []string
	l2, _, err := Open(Config{Dir: dir}, func(_ Pos, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, p := range got {
		if p != "before" && p != "doomed" {
			t.Fatalf("replayed unexpected record %q", p)
		}
	}
	if len(got) == 0 || got[0] != "before" {
		t.Fatalf("acknowledged record lost: replayed %v", got)
	}
}

// TestWedgeLoggedOnce: the wedge is one event. A failed fsync logs one
// "wal wedged" record with its error; the hundred appends refused after
// it, their verdicts and the Close log nothing more.
func TestWedgeLoggedOnce(t *testing.T) {
	var logs bytes.Buffer
	var failing atomic.Bool
	injected := errors.New("injected fsync EIO")
	l, _, err := Open(Config{Dir: t.TempDir(), Log: slog.New(slog.NewJSONHandler(&logs, nil)), Fsync: func(f *os.File) error {
		if failing.Load() {
			return injected
		}
		return f.Sync()
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, injected) {
		t.Fatalf("append through failed fsync: err %v, want %v", err, injected)
	}
	for i := 0; i < 100; i++ {
		if _, err := l.Append([]byte("after")); err == nil {
			t.Fatal("wedged log accepted an append")
		}
	}
	l.Close() // errors (wedged); it stops the syncer, so logs is ours to read
	if got := strings.Count(logs.String(), `"msg":"wal wedged"`); got != 1 || !strings.Contains(logs.String(), `"err":"injected fsync EIO"`) {
		t.Fatalf("logged %d \"wal wedged\" records, want 1 carrying the fsync error:\n%s", got, logs.String())
	}
}

// TestRotateCreateFailureRecovers: when rotation cannot create the next
// segment (transient create error), the old segment must stay open and
// active — appends fail while the condition lasts, then succeed again
// once it clears, with no restart and nothing acknowledged lost.
func TestRotateCreateFailureRecovers(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	injected := errors.New("injected create-time fsync failure")
	// Fail the new segment's HEADER sync: newSegmentLocked then fails
	// before the segment is installed, exercising the rotation-retry
	// path. Group commits target already-created files and are guarded
	// by size: record syncs pass through.
	cfg := Config{Dir: dir, SegmentBytes: 128, Fsync: func(f *os.File) error {
		if failing.Load() {
			if st, err := f.Stat(); err == nil && st.Size() == segHeaderBytes {
				return injected
			}
		}
		return f.Sync()
	}}
	l, _, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 110) // header(16)+rec(8+110) ≥ 128: next Stage rotates
	if _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	// Next append needs a rotation; make segment creation fail.
	failing.Store(true)
	if _, err := l.Append(payload); !errors.Is(err, injected) {
		t.Fatalf("append during create failure: err %v, want %v", err, injected)
	}
	if st := l.Stats(); st.Wedged {
		t.Fatalf("transient create failure wedged the log: %+v", st)
	}
	// Condition clears: the same log must rotate and append cleanly.
	failing.Store(false)
	if _, err := l.Append(payload); err != nil {
		t.Fatalf("append after create failure cleared: %v", err)
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("rotation never completed: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir); len(got) != 2 {
		t.Fatalf("replayed %d records, want the 2 acknowledged", len(got))
	}
}

func TestReplayMissingDir(t *testing.T) {
	info, err := Replay(filepath.Join(t.TempDir(), "never-created"), nil)
	if err != nil {
		t.Fatalf("missing dir should replay empty, got %v", err)
	}
	if info.Records != 0 {
		t.Fatalf("missing dir replayed %d records", info.Records)
	}
}

// TestStatsStallSignal holds a verdict's fsync with nothing else staged
// — one client, or its retry deduped onto the same ticket — and requires
// the record under that verdict to age: a hung fsync is the stall the
// signal exists for. Before the first verdict the last-sync age grows
// from Open instead of reading "just synced".
func TestStatsStallSignal(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(5000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }
	fsync, armed, entered, release := holdFirstFsync()
	l, _, err := Open(Config{Dir: dir, Fsync: fsync, now: now}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	armed.Store(true)
	advance(5 * time.Second)
	if st := l.Stats(); st.LastSyncAge != 5*time.Second || st.OldestPendingAge != 0 {
		t.Errorf("before any record: last sync age %v, oldest pending %v; want 5s, 0", st.LastSyncAge, st.OldestPendingAge)
	}
	_, ticket, err := l.Stage([]byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	waitEntered(t, entered)
	advance(30 * time.Second)
	if st := l.Stats(); st.OldestPendingAge != 30*time.Second {
		t.Errorf("fsync hung 30s: oldest pending age %v, want 30s", st.OldestPendingAge)
	}
	close(release)
	if err := ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.OldestPendingAge != 0 || st.LastSyncAge != 0 {
		t.Errorf("after the verdict: oldest pending %v, last sync age %v; want 0, 0", st.OldestPendingAge, st.LastSyncAge)
	}
}
