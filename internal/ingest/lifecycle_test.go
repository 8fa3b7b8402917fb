package ingest

import (
	"context"
	"errors"
	"os"
	"testing"
)

// TestWALlessRestartCountsRetriesOnce restarts a collector that has no
// WAL: one shard merged, one refused during the drain, then both retried
// against the restarted instance. The checkpoint carries the ledger, so
// the merged shard's retry dedupes and the refused shard's retry takes
// its loss back — each captured sample counts once. A checkpoint without
// the ledger would count the merged shard twice and keep the refused
// shard's loss beside its merge.
func TestWALlessRestartCountsRetriesOnce(t *testing.T) {
	cfg := testServiceConfig(t.TempDir())
	merged, refused := sub("a", 1, 20), sub("b", 2, 30)
	want := merged.Captured() + refused.Captured()

	s1, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(merged); err != nil {
		t.Fatal(err)
	}
	s1.BeginDrain()
	if err := s1.Submit(refused); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during the drain: %v, want ErrDraining", err)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	conserve(t, s1, want, "after the drain")

	s2, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded {
		t.Fatal("restart did not load the final checkpoint")
	}
	if err := s2.Submit(sub("a", 1, 20)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("retry of the merged shard: %v, want ErrDuplicate", err)
	}
	if err := s2.Submit(sub("b", 2, 30)); err != nil {
		t.Errorf("retry of the refused shard: %v", err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	conserve(t, s2, want, "after restart and retries")
	if st := s2.Stats(); st.Lost != 0 || st.LossReversed != refused.Captured() || st.Merged != 1 {
		t.Fatalf("after the retries: lost %d, reversed %d, merged %d; want 0, %d, 1",
			st.Lost, st.LossReversed, st.Merged, refused.Captured())
	}
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != ckptMagic {
		t.Fatalf("a WAL-less checkpoint starts %q, want %q", raw[:4], ckptMagic)
	}
}

// TestPhaseTable pins what each lifecycle phase answers at every entry
// point, reaching each phase the way the daemon does and then calling
// the earlier phases' entries again: the word never goes back down.
func TestPhaseTable(t *testing.T) {
	export := func(t *testing.T, s *Service) {
		if _, err := s.Export(context.Background(), "donor"); err != nil {
			t.Fatal(err)
		}
	}
	retire := func(t *testing.T, s *Service) {
		if err := s.Retire(); !errors.Is(err, ErrNotExported) {
			t.Fatalf("Retire before Export: %v, want ErrNotExported", err)
		}
		export(t, s)
		if err := s.Retire(); err != nil {
			t.Fatal(err)
		}
		export(t, s)
		s.BeginDrain()
	}
	for _, row := range []struct {
		name  string
		enter func(*testing.T, *Service)
		// A new shard's submit, and whether its refusal booked loss.
		submit error
		booked bool
		// AcceptHandoff, AdoptShards, and the checkpoints written by one
		// periodic and one final checkpoint.
		handoff, adopt error
		checkpoints    int
	}{
		{"open", func(*testing.T, *Service) {}, nil, false, nil, nil, 2},
		{"draining", func(_ *testing.T, s *Service) { s.BeginDrain() }, ErrDraining, true, ErrDraining, nil, 2},
		{"sealed", func(t *testing.T, s *Service) { export(t, s); s.BeginDrain() }, ErrDraining, false, ErrDraining, ErrDraining, 2},
		{"retired", retire, ErrDraining, false, ErrHandedOff, ErrHandedOff, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			written := 0
			cfg := testServiceConfig(t.TempDir())
			cfg.persist = func() error { written++; return nil }
			svc, err := NewService(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Submit(sub("old", 1, 10)); err != nil {
				t.Fatal(err)
			}
			row.enter(t, svc)

			written = 0
			svc.checkpoint()
			if err := svc.FinalCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if written != row.checkpoints {
				t.Errorf("checkpoints written: %d, want %d", written, row.checkpoints)
			}
			fresh := sub("new", 2, 20)
			lost := svc.Aggregate().CountersSnapshot().Lost
			if err := svc.Submit(fresh); !errors.Is(err, row.submit) {
				t.Errorf("new submit: %v, want %v", err, row.submit)
			}
			if booked := svc.Aggregate().CountersSnapshot().Lost == lost+fresh.Captured(); booked != row.booked {
				t.Errorf("new submit booked its loss: %v, want %v", booked, row.booked)
			}
			if err := svc.Submit(sub("old", 1, 10)); !errors.Is(err, ErrDuplicate) {
				t.Errorf("duplicate submit: %v, want ErrDuplicate", err)
			}
			h := Handoff{From: "donor-1", DB: testShard(5, 10), Shards: []string{"donor/s1"}}
			if _, err := svc.AcceptHandoff(h); !errors.Is(err, row.handoff) {
				t.Errorf("AcceptHandoff: %v, want %v", err, row.handoff)
			}
			if _, err := svc.AdoptShards("peer", []string{"moved/s1"}); !errors.Is(err, row.adopt) {
				t.Errorf("AdoptShards: %v, want %v", err, row.adopt)
			}
		})
	}
}
