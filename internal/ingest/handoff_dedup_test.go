package ingest

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"profileme/internal/profile"
)

// encodeDonor builds a donor aggregate with samples AND standing loss,
// serializes it as a handoff envelope, and returns (wire bytes,
// captured total, ledger shards).
func encodeDonor(t *testing.T) ([]byte, uint64, []string) {
	t.Helper()
	donor := profile.NewDB(16, 0, 4)
	if err := donor.Merge(testShard(11, 40)); err != nil {
		t.Fatal(err)
	}
	donor.RecordLoss(7)
	shards := []string{"donor/s1", "donor/s2", "donor/s3"}
	body, err := encodeHandoff("donor-1", donor.Save, shards)
	if err != nil {
		t.Fatal(err)
	}
	return body, donor.Samples() + donor.Lost(), shards
}

// TestAcceptHandoffDuplicateDelivery delivers the SAME serialized
// envelope twice — the sender retrying after a lost ack — and demands
// the second delivery dedupe: ErrDuplicate carrying the original
// captured count, no second merge (bit-identical aggregate), no ledger
// growth, conservation exact.
func TestAcceptHandoffDuplicateDelivery(t *testing.T) {
	body, captured, _ := encodeDonor(t)
	svc, err := NewService(Config{QueueDepth: 8, Interval: 16, WALDir: filepath.Join(t.TempDir(), "wal")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseWAL()

	h1, err := DecodeHandoff(body)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.AcceptHandoff(h1); err != nil || got != captured {
		t.Fatalf("first delivery: got %d err %v, want %d nil", got, err, captured)
	}
	digest := aggDigest(t, svc)
	ledger := len(svc.Ledger().Shards)

	// Byte-identical redelivery: decode the same wire bytes again (the
	// sender reuses its encoded body, as the export cache does).
	h2, err := DecodeHandoff(body)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Key == "" || h2.Key != h1.Key {
		t.Fatalf("content keys differ across identical bytes: %q vs %q", h1.Key, h2.Key)
	}
	got, err := svc.AcceptHandoff(h2)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("redelivery: err=%v, want ErrDuplicate", err)
	}
	if got != captured {
		t.Fatalf("duplicate ack carried %d captured, want the original %d", got, captured)
	}
	if d2 := aggDigest(t, svc); string(d2) != string(digest) {
		t.Fatal("redelivery changed the aggregate (double-merge)")
	}
	if n := len(svc.Ledger().Shards); n != ledger {
		t.Fatalf("redelivery grew the ledger: %d -> %d", ledger, n)
	}
	conserve(t, svc, captured, "after duplicate delivery")
	st := svc.Stats()
	if st.HandoffsIn != 1 || st.HandoffCaptured != captured {
		t.Fatalf("handoffs_in=%d captured=%d, want 1/%d (duplicate must not count)", st.HandoffsIn, st.HandoffCaptured, captured)
	}
	if st.Duplicates == 0 {
		t.Fatal("duplicate delivery not counted in duplicate_submissions")
	}
}

// TestAcceptHandoffDuplicateConcurrent races two deliveries of the same
// envelope — exactly the interleaving a network-chaos duplicate
// produces. Exactly one must merge; the other must dedupe.
func TestAcceptHandoffDuplicateConcurrent(t *testing.T) {
	body, captured, _ := encodeDonor(t)
	svc, err := NewService(Config{QueueDepth: 8, Interval: 16, WALDir: filepath.Join(t.TempDir(), "wal")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseWAL()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		h, err := DecodeHandoff(body)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, h Handoff) {
			defer wg.Done()
			_, errs[i] = svc.AcceptHandoff(h)
		}(i, h)
	}
	wg.Wait()
	var merged, deduped int
	for _, err := range errs {
		switch {
		case err == nil:
			merged++
		case errors.Is(err, ErrDuplicate):
			deduped++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if merged != 1 || deduped != 1 {
		t.Fatalf("merged=%d deduped=%d, want exactly 1 and 1", merged, deduped)
	}
	conserve(t, svc, captured, "after concurrent duplicate delivery")
}

// TestAcceptHandoffDedupeSurvivesRecovery delivers, crashes, recovers
// from the WAL, and redelivers the same bytes: the dedupe ledger must
// have survived the crash — the donor's retry after the receiver's
// restart is the scenario the checkpoint/WAL persistence of handoff
// keys exists for.
func TestAcceptHandoffDedupeSurvivesRecovery(t *testing.T) {
	body, captured, _ := encodeDonor(t)
	dir := t.TempDir()
	cfg := Config{QueueDepth: 8, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHandoff(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AcceptHandoff(h); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	conserve(t, s2, captured, "handoff recovery")
	h2, err := DecodeHandoff(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.AcceptHandoff(h2)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("redelivery after recovery: err=%v, want ErrDuplicate", err)
	}
	if got != captured {
		t.Fatalf("duplicate ack after recovery carried %d, want %d", got, captured)
	}
	conserve(t, s2, captured, "after post-recovery redelivery")
}

// TestAdoptShards: adoption installs dedupe obligations only — no
// samples move — and the obligation survives both a duplicate adopt
// call and a crash-recovery.
func TestAdoptShards(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{QueueDepth: 8, Interval: 16, WALDir: filepath.Join(dir, "wal")}
	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s1.AdoptShards("old-owner", []string{"moved/a", "moved/b"})
	if err != nil || n != 2 {
		t.Fatalf("adopt: n=%d err=%v, want 2 nil", n, err)
	}
	if c := s1.Aggregate().CountersSnapshot(); c.Samples+c.Lost != 0 {
		t.Fatalf("adoption moved samples: %d captured appeared from nowhere", c.Samples+c.Lost)
	}
	// A retry of a shard the old owner already merged dedupes here now.
	if err := s1.Submit(sub("moved/a", 1, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("submit of adopted shard: err=%v, want ErrDuplicate", err)
	}
	if s1.Ledger().AdoptedFrom["moved/b"] != "old-owner" {
		t.Fatal("adoption provenance missing")
	}
	// Idempotent: re-adoption installs nothing new.
	if n, err := s1.AdoptShards("old-owner", []string{"moved/a", "moved/b"}); err != nil || n != 0 {
		t.Fatalf("re-adopt: n=%d err=%v, want 0 nil", n, err)
	}
	if st := s1.Stats(); st.AdoptedShards != 2 {
		t.Fatalf("adopted_shards=%d, want 2", st.AdoptedShards)
	}
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The obligation is WAL-durable: a crashed-and-recovered instance
	// still dedupes the moved shards.
	s2, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if err := s2.Submit(sub("moved/b", 2, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("submit of adopted shard after recovery: err=%v, want ErrDuplicate", err)
	}
	if c := s2.Aggregate().CountersSnapshot(); c.Samples+c.Lost != 0 {
		t.Fatalf("recovery invented %d captured samples from an adopt record", c.Samples+c.Lost)
	}
}

// TestSealRefusesWithoutLoss: after Export, a NEW shard is refused with
// ZERO side effects (no loss accounting — the export snapshot must be
// the final word on this instance's books), while a duplicate of an
// already-admitted shard still answers honestly.
func TestSealRefusesWithoutLoss(t *testing.T) {
	svc, err := NewService(Config{QueueDepth: 8, Interval: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := sub("pre-seal", 3, 25)
	if err := svc.Submit(pre); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Export(context.Background(), "donor"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(sub("post-seal", 4, 30)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-seal submit: err=%v, want ErrDraining", err)
	}
	if lost := svc.Aggregate().CountersSnapshot().Lost; lost != 0 {
		t.Fatalf("post-seal refusal recorded %d loss; the export envelope could never carry it", lost)
	}
	if st := svc.Stats(); st.SamplesLost != 0 || !st.Sealed {
		t.Fatalf("stats: samples_lost=%d sealed=%v, want 0 true", st.SamplesLost, st.Sealed)
	}
	if err := svc.Submit(sub("pre-seal", 3, 25)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate of pre-seal shard: err=%v, want ErrDuplicate (its samples ride in the envelope)", err)
	}
}

// TestDrainingRefusesHandoff: an instance that is itself on its way out
// must not take over a peer's books — draining answers ErrDraining,
// retired answers ErrHandedOff — and neither refusal merges anything.
func TestDrainingRefusesHandoff(t *testing.T) {
	h := Handoff{From: "donor-1", DB: testShard(5, 10), Shards: []string{"donor/s1"}}
	svc, err := NewService(Config{QueueDepth: 8, Interval: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	if _, err := svc.AcceptHandoff(h); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining receiver: err=%v, want ErrDraining", err)
	}
	if err := svc.Retire(); !errors.Is(err, ErrNotExported) {
		t.Fatalf("Retire before Export: %v, want ErrNotExported", err)
	}
	if _, err := svc.Export(context.Background(), "receiver"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Retire(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AcceptHandoff(h); !errors.Is(err, ErrHandedOff) {
		t.Fatalf("retired receiver: err=%v, want ErrHandedOff", err)
	}
	conserve(t, svc, 0, "after two refused handoffs")
}
