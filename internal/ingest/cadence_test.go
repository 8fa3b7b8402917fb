package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"profileme/internal/frame"
)

// mergeOne admits sb and merges it on the calling goroutine, so a test
// sees each merge's checkpoint decision before the next submission.
func mergeOne(t *testing.T, svc *Service, sb Submission) {
	t.Helper()
	if err := svc.Submit(sb); err != nil {
		t.Fatalf("submit %s: %v", sb.Shard, err)
	}
	queued, ok := svc.q.wait()
	if !ok {
		t.Fatal("queue closed")
	}
	svc.merge(queued)
}

// checkpointPayload is the size of the checkpoint file at path without
// its envelope: the ledger rows plus the aggregate image.
func checkpointPayload(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size() - int64(frame.HeaderLen+8+4)
}

// TestCheckpointCadenceAmortisedByWAL pins the checkpoint cadence. With
// a WAL and CheckpointEvery 1, after a checkpoint of C payload bytes the
// merges whose records add up to less than C write none, and the merge
// whose record takes the log's growth since the barrier to C or past it
// writes exactly one. Drain's final checkpoint is written regardless.
func TestCheckpointCadenceAmortisedByWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testServiceConfig(dir)
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.CheckpointEvery = 1
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseWAL()

	var ckBytes int64 // zero before the first checkpoint: the first merge writes one
	written, skipped := 0, 0
	for i := 0; written < 4 || skipped < 6; i++ {
		if i == 200 {
			t.Fatalf("after %d merges: %d checkpoints, %d merges without one", i, written, skipped)
		}
		pre := svc.Stats()
		mergeOne(t, svc, sub(fmt.Sprintf("s%03d", i), uint64(i), 10+i%7))
		st := svc.Stats()
		grown := st.WAL.BytesSinceBarrier
		switch n := st.Checkpoints - pre.Checkpoints; {
		case n > 1:
			t.Fatalf("merge %d wrote %d checkpoints", i, n)
		case n == 1:
			if crossed := pre.WAL.BytesSinceBarrier + st.WAL.AppendedBytes - pre.WAL.AppendedBytes; crossed < ckBytes {
				t.Fatalf("merge %d: checkpoint written after %d bytes of log, last checkpoint %d", i, crossed, ckBytes)
			}
			if grown != 0 {
				t.Fatalf("merge %d: checkpoint left %d bytes past its barrier", i, grown)
			}
			ckBytes = checkpointPayload(t, cfg.CheckpointPath)
			written++
		default:
			if grown >= ckBytes {
				t.Fatalf("merge %d: log grew %d bytes since the barrier, last checkpoint %d, and none was written",
					i, grown, ckBytes)
			}
			skipped++
		}
	}

	// Merge until a merge writes no checkpoint, then Drain: the final
	// checkpoint is unconditional.
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("every tail merge wrote a checkpoint")
		}
		before := svc.Stats().Checkpoints
		mergeOne(t, svc, sub(fmt.Sprintf("tail%03d", i), uint64(i), 3))
		if svc.Stats().Checkpoints == before {
			break
		}
	}
	before := svc.Stats().Checkpoints
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Checkpoints; got != before+1 {
		t.Fatalf("drain: checkpoints %d -> %d, want exactly one final checkpoint", before, got)
	}
}

// TestCheckpointCadenceWithoutWAL: with no WAL the checkpoint is the only
// durability, so it keeps the plain count cadence, and Drain adds one.
func TestCheckpointCadenceWithoutWAL(t *testing.T) {
	cfg := testServiceConfig(t.TempDir())
	cfg.CheckpointEvery = 3
	svc, err := NewService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mergeOne(t, svc, sub(fmt.Sprintf("s%03d", i), uint64(i), 10+i))
		if got, want := svc.Stats().Checkpoints, uint64((i+1)/3); got != want {
			t.Fatalf("after merge %d: %d checkpoints, want %d", i+1, got, want)
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Checkpoints; got != 4 {
		t.Fatalf("after drain: %d checkpoints, want 4", got)
	}
}
