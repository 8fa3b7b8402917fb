package ingest

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/frame"
	"profileme/internal/profile"
	"profileme/internal/wal"
)

// wireSub is a submission that travelled: encoded by the client codec,
// decoded by the server's.
func wireSub(t *testing.T, shard string, db *profile.DB) Submission {
	t.Helper()
	body, err := EncodeSubmit(shard, db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reorderedEnvelope is db as a valid PMDB envelope no Save would write:
// the same image with its accumulators listed in descending PC order.
func reorderedEnvelope(t *testing.T, db *profile.DB) []byte {
	t.Helper()
	// Mirrors profile.dbImage; gob matches fields by name.
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
		Accums      []profile.PCAccum
	}
	img := dbImage{S: db.S, W: db.W, C: db.C, TNear: db.TNear, Samples: db.Samples(), Lost: db.Lost()}
	pcs := db.PCs()
	for i := len(pcs) - 1; i >= 0; i-- {
		img.Accums = append(img.Accums, *db.Get(pcs[i]))
	}
	var env bytes.Buffer
	if err := frame.WriteEnvelope(&env, "PMDB", 1, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(img)
	}); err != nil {
		t.Fatal(err)
	}
	return env.Bytes()
}

func saveBytes(t testing.TB, db *profile.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walRecords reads every record payload a service logged.
func walRecords(t *testing.T, dir string) []record {
	t.Helper()
	var recs []record
	if _, err := wal.Replay(dir, func(_ wal.Pos, payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestAdmitRecordWrapsWireBytes pins cut (1) at the record level: a
// decoded submission carries the verified envelope, the WAL admit record
// built from it is byte-for-byte the record that re-encoding the decoded
// database produced before, and a submission with no wire form is still
// encoded from its database.
func TestAdmitRecordWrapsWireBytes(t *testing.T) {
	db := testShard(3, 40)
	db.RecordLoss(5)
	travelled := wireSub(t, "compress/s003", db)
	if !bytes.Equal(travelled.wire, saveBytes(t, db)) {
		t.Fatal("DecodeSubmit did not keep the profile envelope it verified")
	}
	reencoded, err := encodeRecord(record{Kind: walKindAdmit, Shard: travelled.Shard}, travelled.DB.Save)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		sub  Submission
	}{
		{"wire submission", travelled},
		{"in-process submission", Submission{Shard: travelled.Shard, DB: db}},
	} {
		got, err := encodeAdmitRecord(c.sub)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if !bytes.Equal(got, reencoded) {
			t.Errorf("%s: admit record differs from the re-encoded form (%d vs %d bytes)", c.what, len(got), len(reencoded))
		}
		kind, back, _, err := decodeWALRecord(got)
		if err != nil || kind != walKindAdmit || back.Shard != travelled.Shard {
			t.Fatalf("%s: record does not decode as its admit: kind %q shard %q err %v", c.what, kind, back.Shard, err)
		}
		if !bytes.Equal(saveBytes(t, back.DB), saveBytes(t, db)) {
			t.Errorf("%s: record replays to a different shard", c.what)
		}
	}

	// Bytes after the envelope are not part of what was verified, so they
	// are not part of what is logged.
	padded, err := json.Marshal(record{Shard: "x", Profile: append(saveBytes(t, db), "trailing"...)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSubmit(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.wire, saveBytes(t, db)) {
		t.Errorf("wire bytes run past the verified envelope: %d bytes, envelope is %d", len(s.wire), len(saveBytes(t, db)))
	}
}

// TestRecoverReproducesWireSubmissions is the ledger's Recover-bytes
// oracle inside the package: a WAL written from wire submissions alone
// (no checkpoint) recovers to the live aggregate's exact Save bytes, and
// a queued submission no longer holds its wire body.
func TestRecoverReproducesWireSubmissions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{QueueDepth: 16, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		db := testShard(uint64(i), 10+3*i)
		if i%2 == 1 {
			db.RecordLoss(uint64(i))
		}
		sb := wireSub(t, fmt.Sprintf("shard-%d", i), db)
		if sb.wire == nil {
			t.Fatal("wire submission carries no wire bytes")
		}
		if err := s1.Submit(sb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := range s1.q.buf[:s1.q.count] {
		if s1.q.buf[i].wire != nil {
			t.Fatalf("queued shard %s still pins its %d-byte wire body", s1.q.buf[i].Shard, len(s1.q.buf[i].wire))
		}
	}
	if err := s1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := aggDigest(t, s1)
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if info.Replayed != 6 {
		t.Fatalf("replayed %d records, want 6", info.Replayed)
	}
	if !bytes.Equal(aggDigest(t, s2), live) {
		t.Fatal("aggregate recovered from wire-byte WAL records differs from the live aggregate")
	}
}

// TestNonCanonicalEnvelopeLoggedAsReceived: a valid envelope whose
// accumulators are not in Save's order is logged with the client's bytes,
// not a re-encoding, and recovers to the same aggregate as the canonical
// form of the same shard.
func TestNonCanonicalEnvelopeLoggedAsReceived(t *testing.T) {
	db := testShard(5, 60)
	odd := reorderedEnvelope(t, db)
	canonical := saveBytes(t, db)
	if bytes.Equal(odd, canonical) {
		t.Fatal("test envelope is canonical; it needs at least two PCs")
	}
	recovered := map[string][]byte{}
	for _, c := range []struct {
		what    string
		profile []byte
	}{{"reordered", odd}, {"canonical", canonical}} {
		body, err := json.Marshal(record{Shard: "li/s001", Profile: c.profile})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := DecodeSubmit(body)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		cfg := Config{QueueDepth: 4, Interval: 16, WALDir: filepath.Join(t.TempDir(), "wal")}
		s1, err := NewService(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Submit(sb); err != nil {
			t.Fatalf("%s: submit: %v", c.what, err)
		}
		if err := s1.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		live := aggDigest(t, s1)
		if err := s1.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recs := walRecords(t, cfg.WALDir)
		if len(recs) != 1 || !bytes.Equal(recs[0].Profile, c.profile) {
			t.Fatalf("%s: WAL does not hold the received envelope", c.what)
		}
		s2, _, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recovered[c.what] = aggDigest(t, s2)
		s2.CloseWAL()
		if !bytes.Equal(recovered[c.what], live) {
			t.Fatalf("%s: recovered aggregate differs from the live one", c.what)
		}
	}
	if !bytes.Equal(recovered["reordered"], recovered["canonical"]) {
		t.Fatal("the reordered envelope recovers to a different aggregate than its canonical form")
	}
}

// TestSubmitProceedsDuringSnapshot pins cut (2): while a checkpoint
// snapshot holds the resolution lock — the persist seam below holds it
// exactly as persistCheckpoint does for the length of its encode — a
// fresh submission, a duplicate and a stats poll all complete. Before
// the lock was split all three queued behind the snapshot.
func TestSubmitProceedsDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var svc *Service
	var once sync.Once
	cfg := Config{
		QueueDepth:     4,
		Interval:       16,
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt.db"),
		persist: func() error {
			svc.res.Lock()
			defer svc.res.Unlock()
			once.Do(func() { close(entered) })
			<-release
			return nil
		},
	}
	var err error
	if svc, err = NewService(cfg, nil); err != nil {
		t.Fatal(err)
	}
	defer svc.CloseWAL()
	svc.Start()
	s1, s2 := sub("s001", 1, 10), sub("s002", 2, 20)
	if err := svc.Submit(s1); err != nil {
		t.Fatal(err)
	}
	<-entered // s1 merged; its checkpoint is now "encoding" under res

	done := make(chan error, 3)
	go func() { done <- svc.Submit(s2) }()
	go func() { done <- svc.Submit(s1) }()
	go func() { svc.Stats(); done <- nil }()
	var fresh, dup int
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			switch {
			case errors.Is(err, ErrDuplicate):
				dup++
			case err == nil:
				fresh++
			default:
				t.Errorf("during snapshot: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a submission or stats poll is stuck behind the snapshot")
		}
	}
	if fresh != 2 || dup != 1 {
		t.Fatalf("during snapshot: %d plain completions and %d duplicates, want 2 and 1", fresh, dup)
	}
	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	conserve(t, svc, s1.Captured()+s2.Captured(), "after drain")
}

// TestCrashRecoveryConservationProperty checkpoints after every merge
// while concurrent clients submit, duplicate and retry 429s, "crashes"
// the instance at a random
// operation, and recovers from what is on disk. Each seed must show
// exact conservation over every shard that reached the WAL, every
// acknowledged shard accounted for exactly once, and a checkpoint barrier
// that passed no record the checkpoint's own ledger does not cover.
func TestCrashRecoveryConservationProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashRecoveryTrial(t, seed)
		})
	}
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func runCrashRecoveryTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	// ckpt serialises checkpoints with the crash: taking it waits out a
	// checkpoint in flight and holds back every later one, so the files
	// stop changing while clients and merges carry on in memory — a crash
	// at that instant, as far as the disk can tell.
	var ckpt sync.Mutex
	var s1 *Service
	cfg := Config{
		QueueDepth:      1 + rng.Intn(3),
		Interval:        16,
		WALDir:          filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "ckpt.db"),
		CheckpointEvery: 1,
		// Small segments, so checkpoints really reclaim.
		WALSegmentBytes: 4 << 10,
		persist: func() error {
			ckpt.Lock()
			defer ckpt.Unlock()
			return s1.persistCheckpoint()
		},
	}
	if delay := rng.Intn(3); delay > 0 {
		d := time.Duration(delay*50) * time.Microsecond
		cfg.mergeHook = func(Submission) { time.Sleep(d) }
	}
	var err error
	if s1, err = NewService(cfg, nil); err != nil {
		t.Fatal(err)
	}
	s1.Start()

	nShards := 10 + rng.Intn(20)
	shards := make([]Submission, nShards)
	for i := range shards {
		db := testShard(uint64(seed)*1000+uint64(i), 1+rng.Intn(30))
		if rng.Intn(3) == 0 {
			db.RecordLoss(uint64(1 + rng.Intn(10)))
		}
		shards[i] = wireSub(t, fmt.Sprintf("shard-%03d", i), db)
	}
	type op struct{ shard, retries int }
	scripts := make([][]op, 2+rng.Intn(3))
	total := 0
	for c := range scripts {
		for j, n := 0, 20+rng.Intn(30); j < n; j++ {
			scripts[c] = append(scripts[c], op{rng.Intn(nShards), rng.Intn(3)})
		}
		total += len(scripts[c])
	}
	crashAt := int64(1 + rng.Intn(total))

	var (
		ops     atomic.Int64
		crashed atomic.Bool
		mu      sync.Mutex
		logged  = map[int]bool{} // reached the WAL: every outcome here does
		acked   = map[int]bool{} // answered 202, plain or duplicate
		wg      sync.WaitGroup
	)
	for _, script := range scripts {
		wg.Add(1)
		go func(script []op) {
			defer wg.Done()
			for _, o := range script {
				if ops.Add(1) == crashAt {
					ckpt.Lock()
					crashed.Store(true)
				}
				for attempt := 0; !crashed.Load(); attempt++ {
					err := s1.Submit(shards[o.shard])
					mu.Lock()
					logged[o.shard] = true
					if err == nil || errors.Is(err, ErrDuplicate) {
						acked[o.shard] = true
					}
					mu.Unlock()
					if errors.Is(err, ErrQueueFull) && attempt < o.retries {
						runtime.Gosched()
						continue
					}
					if err != nil && !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("shard %d: %v", o.shard, err)
					}
					break
				}
			}
		}(script)
	}
	wg.Wait()
	// Nothing survives the crash but the files. Recovery reads a copy, so
	// the old instance can be let go and wound down afterwards.
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	ckpt.Unlock()
	if err := s1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.mergeHook, rcfg.persist = nil, nil
	rcfg.WALDir = filepath.Join(crashDir, "wal")
	rcfg.CheckpointPath = filepath.Join(crashDir, "ckpt.db")

	// The barrier property, read straight off the crash image: a record
	// the barrier passed is covered by the checkpoint's ledger, and an
	// acknowledged shard the ledger does not cover still has its record.
	ck, err := LoadCheckpointFile(rcfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	covered, surviving := map[string]bool{}, map[string]bool{}
	if ck != nil {
		for _, sh := range ck.Applied {
			covered[sh] = true
		}
		for sh := range ck.RefusedLoss {
			covered[sh] = true
		}
	}
	if _, err := wal.Replay(rcfg.WALDir, func(pos wal.Pos, payload []byte) error {
		_, sb, _, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		surviving[sb.Shard] = true
		if ck != nil && pos.Before(ck.Barrier) && !covered[sb.Shard] {
			t.Errorf("record of %s at %v lies below barrier %v but the checkpoint does not cover it", sb.Shard, pos, ck.Barrier)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for idx := range acked {
		if sh := shards[idx].Shard; !covered[sh] && !surviving[sh] {
			t.Errorf("acknowledged %s is in neither the checkpoint ledger nor the surviving WAL", sh)
		}
	}

	s2, _, err := Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	var want uint64
	for idx := range logged {
		want += shards[idx].Captured()
	}
	conserve(t, s2, want, "after recovery")
	applied := map[string]bool{}
	for _, sh := range s2.Ledger().Applied {
		if applied[sh] {
			t.Errorf("%s applied twice", sh)
		}
		applied[sh] = true
	}
	refused := s2.Ledger().Refused
	var booked uint64
	for idx := range shards {
		sh := shards[idx].Shard
		_, lost := refused[sh]
		if applied[sh] && lost {
			t.Errorf("%s is both applied and standing as refused loss", sh)
		}
		if applied[sh] || lost {
			booked += shards[idx].Captured()
		}
		if acked[idx] && !applied[sh] && !lost {
			t.Errorf("acknowledged %s is unaccounted after recovery", sh)
		}
	}
	if booked != want {
		t.Errorf("books cover %d captured samples, want %d: a shard is missing or counted twice", booked, want)
	}
}
