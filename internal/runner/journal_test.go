package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"profileme/internal/core"
	"profileme/internal/wal"
)

// campaignJobs builds a deterministic sharded campaign.
func campaignJobs(n, scale int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("compress/s%03d", i), Bench: "compress", Scale: scale}
	}
	return jobs
}

// campaignConfig is the journaled real-simulator configuration the tests
// in this file and crash_test.go share.
func campaignConfig(workers int, dir string) Config {
	cfg := testConfig(workers)
	cfg.Sampling.MeanInterval = 128
	cfg.CheckpointDir = dir
	return cfg
}

// runCampaign runs a fresh campaign to completion.
func runCampaign(t *testing.T, cfg Config, jobs []Job) *Fleet {
	t.Helper()
	f, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep := mustRun(t, f); rep.Completed != len(jobs) {
		t.Fatalf("completed %d/%d: %+v", rep.Completed, len(jobs), rep)
	}
	return f
}

// finish resumes the campaign in cfg.CheckpointDir, runs it to the end
// and requires its aggregate to be the uninterrupted run's, byte for byte
// (which also rules out a shard merged twice or not at all).
func finish(t *testing.T, cfg Config, jobs []Job, want []byte, what string) *Fleet {
	t.Helper()
	g, err := Resume(cfg, jobs)
	if err != nil {
		t.Fatalf("%s: resume: %v", what, err)
	}
	rep, err := g.Run(context.Background())
	if err != nil || rep.Completed != len(jobs) || rep.Pending != 0 || rep.DeadLettered != 0 {
		t.Fatalf("%s: resumed campaign incomplete: %+v (%v)", what, rep, err)
	}
	if !bytes.Equal(image(t, g), want) {
		t.Fatalf("%s: resumed aggregate (%d samples) differs from the uninterrupted run's", what, g.Profile().Samples())
	}
	return g
}

// image is the aggregate's profile.Save bytes.
func image(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if f.Profile() == nil {
		t.Fatal("no aggregate profile")
	}
	if err := f.Profile().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// journalEntries reads dir's journal without repairing it: the decoded
// JSON line of every intact record and the offset each record starts at.
func journalEntries(t *testing.T, dir string) (entries []journalEntry, offs []int) {
	t.Helper()
	_, err := wal.Replay(dir, func(pos wal.Pos, payload []byte) error {
		e, _, err := decodeEntry(payload)
		entries, offs = append(entries, e), append(offs, int(pos.Off))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries, offs
}

// journaled counts dir's intact records; the read-only replay is safe
// beside a writer that is still appending.
func journaled(dir string) int {
	info, _ := wal.Replay(dir, nil)
	return info.Records
}

// requireEachDoneOnce: the journal completes every job exactly once.
func requireEachDoneOnce(t *testing.T, dir string, jobs []Job) {
	t.Helper()
	done := map[string]int{}
	entries, _ := journalEntries(t, dir)
	for _, e := range entries {
		if e.Status == statusDone {
			done[e.Job.ID]++
		}
	}
	for _, job := range jobs {
		if done[job.ID] != 1 {
			t.Fatalf("journal completes job %s %d times (%d records)", job.ID, done[job.ID], len(entries))
		}
	}
}

// segment returns the one journal segment of a small campaign.
func segment(t *testing.T, dir string) (name string, data []byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "wal-") {
		t.Fatalf("checkpoint directory should hold one wal segment only: %v (%v)", ents, err)
	}
	data, err = os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return ents[0].Name(), data
}

// TestCheckpointAndResumeCompleted: a finished campaign cost one append
// and one fsync per outcome and left only WAL segments; resumed, it has
// nothing to do and reproduces the same aggregate.
func TestCheckpointAndResumeCompleted(t *testing.T) {
	cfg := campaignConfig(2, t.TempDir())
	fsyncs := 0
	cfg.fsync = func(f *os.File) error { fsyncs++; return f.Sync() }
	jobs := campaignJobs(4, 3000)
	f := runCampaign(t, cfg, jobs)
	rep := f.buildReport()

	segment(t, cfg.CheckpointDir)
	if entries, _ := journalEntries(t, cfg.CheckpointDir); len(entries) != 4 || fsyncs != 4+2 {
		t.Fatalf("%d records, %d fsyncs for 4 outcomes; want 4 and 4 + segment header + close", len(entries), fsyncs)
	}

	g := finish(t, cfg, jobs, image(t, f), "completed campaign")
	if rep2 := g.buildReport(); !reflect.DeepEqual(rep2, rep) {
		t.Fatalf("resume changed the report:\n%+v\n%+v", rep2, rep)
	}
	if fsyncs != 4+2 {
		t.Fatalf("resuming a finished campaign wrote to the journal (%d fsyncs)", fsyncs)
	}
}

// TestResumeAfterDrainMatchesUninterrupted: drain a campaign partway,
// resume it, and compare the final aggregate against an uninterrupted
// campaign with the same seeds: identical image, every job journaled as
// done exactly once.
func TestResumeAfterDrainMatchesUninterrupted(t *testing.T) {
	jobs := campaignJobs(6, 3000)
	want := image(t, runCampaign(t, campaignConfig(2, ""), jobs))

	// Interrupted: cancel once the second record lands, then resume.
	cfg := campaignConfig(1, t.TempDir())
	f, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for ctx.Err() == nil {
			if journaled(cfg.CheckpointDir) >= 2 {
				cancel()
			}
		}
	}()
	rep, err := f.Run(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pending == 0 {
		t.Skip("campaign finished before the drain; nothing to resume")
	}
	finish(t, cfg, jobs, want, "drained campaign")
	requireEachDoneOnce(t, cfg.CheckpointDir, jobs)
}

// TestJournalEveryCrashPrefix: the journal is one byte stream, so "crash
// at every point" is a loop. For every record boundary and a stride of
// mid-record cuts, the prefix alone resumes and finishes to the
// byte-identical aggregate of the uninterrupted run.
func TestJournalEveryCrashPrefix(t *testing.T) {
	jobs := campaignJobs(5, 2000)
	cfg := campaignConfig(2, t.TempDir())
	want := image(t, runCampaign(t, cfg, jobs))
	name, seg := segment(t, cfg.CheckpointDir)
	_, cuts := journalEntries(t, cfg.CheckpointDir)
	if len(cuts) != len(jobs) {
		t.Fatalf("%d journal records for %d jobs", len(cuts), len(jobs))
	}
	for off := 0; off <= len(seg); off += 97 {
		cuts = append(cuts, off)
	}
	for _, cut := range append(cuts, len(seg)) {
		cfg.CheckpointDir = t.TempDir()
		if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, name), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		finish(t, cfg, jobs, want, fmt.Sprintf("journal cut at byte %d of %d", cut, len(seg)))
		requireEachDoneOnce(t, cfg.CheckpointDir, jobs)
	}
}

// TestJournalMidRecordDamage: one flipped byte inside record k of n. The
// records before it survive, the jobs from it on re-run, the damaged tail
// is gone from the journal, and the aggregate is the undamaged run's.
func TestJournalMidRecordDamage(t *testing.T) {
	jobs := campaignJobs(5, 2000)
	cfg := campaignConfig(2, t.TempDir())
	want := image(t, runCampaign(t, cfg, jobs))
	name, seg := segment(t, cfg.CheckpointDir)
	_, offs := journalEntries(t, cfg.CheckpointDir)
	const k = 2
	seg[(offs[k]+offs[k+1])/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, name), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	var records func() []map[string]any
	cfg.Log, records = recordLogger(t)
	g, err := Resume(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	resumed := []any{"done", k, "dead", 0, "pending", len(jobs) - k, "records", k, "damaged_at", fmt.Sprintf("1:%d", offs[k])}
	if rep := g.buildReport(); rep.Completed != k || countRecords(records(), "resumed", resumed...) != 1 {
		t.Fatalf("resume over damage in record %d kept %d jobs and logged %v, want one resumed record with %v", k, rep.Completed, records(), resumed)
	}
	cfg.Log = nil
	finish(t, cfg, jobs, want, "damaged journal")
	requireEachDoneOnce(t, cfg.CheckpointDir, jobs)
	if info, _ := wal.Replay(cfg.CheckpointDir, nil); info.Truncated || info.Records != len(jobs) {
		t.Fatalf("damage still in the journal after the resumed run: %+v", info)
	}
}

// TestNewRefusesExistingCampaign: New must not silently mix into a
// directory that already holds a campaign.
func TestNewRefusesExistingCampaign(t *testing.T) {
	cfg := campaignConfig(1, t.TempDir())
	jobs := campaignJobs(1, 1000)
	runCampaign(t, cfg, jobs)
	if _, err := New(cfg, jobs); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("New over an existing campaign: %v", err)
	}
}

// TestResumeSeedMismatchRefused: resuming with a different fleet seed
// would mix incompatible sampling streams; it must be refused.
func TestResumeSeedMismatchRefused(t *testing.T) {
	cfg := campaignConfig(1, t.TempDir())
	jobs := campaignJobs(1, 1000)
	runCampaign(t, cfg, jobs)
	cfg.Seed = 999
	if _, err := Resume(cfg, jobs); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed-mismatched resume: %v", err)
	}
}

// TestResumeIntervalMismatchRefused: the sampling configuration is pinned
// like the seed, against the (S, W, C) RunShard derives — the campaign here
// is paired, so its shards carry W = the pairing window. A resume at
// another interval, unpaired, or at another window is refused before
// dispatch (not simulated and dead-lettered on "configurations differ",
// which a corrected resume could never undo), the journal is untouched,
// and the corrected resume completes everything.
func TestResumeIntervalMismatchRefused(t *testing.T) {
	cfg := campaignConfig(1, t.TempDir())
	cfg.Sampling.MeanInterval = 0 // the default, 512
	cfg.Sampling.Paired, cfg.Sampling.Window = true, 40
	if db := runCampaign(t, cfg, campaignJobs(3, 4000)).Profile(); db.W != 40 || db.Pairs() == 0 {
		t.Fatalf("paired campaign aggregate has W=%d, %d pairs", db.W, db.Pairs())
	}
	_, before := segment(t, cfg.CheckpointDir)

	jobs := campaignJobs(6, 4000)
	for name, mutate := range map[string]func(*core.Config){
		"interval": func(c *core.Config) { c.MeanInterval = 64 },
		"unpaired": func(c *core.Config) { c.Paired = false },
		"window":   func(c *core.Config) { c.Window = 80 },
	} {
		wrong := cfg
		mutate(&wrong.Sampling)
		if _, err := Resume(wrong, jobs); err == nil || !strings.Contains(err.Error(), "sampling configuration S=512 W=40") {
			t.Fatalf("%s-mismatched resume: %v", name, err)
		}
	}
	if _, after := segment(t, cfg.CheckpointDir); !bytes.Equal(before, after) {
		t.Fatal("refused resume changed the journal")
	}
	ref := cfg
	ref.CheckpointDir = ""
	finish(t, cfg, jobs, image(t, runCampaign(t, ref, jobs)), "corrected resume")
}

// TestPreJournalCheckpointRefused: a directory still holding the pre-journal
// format is refused by name, not quietly started beside.
func TestPreJournalCheckpointRefused(t *testing.T) {
	cfg := campaignConfig(1, t.TempDir())
	old := filepath.Join(cfg.CheckpointDir, "manifest-00000001.json")
	if err := os.WriteFile(old, []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(Config, []Job) (*Fleet, error){"New": New, "Resume": Resume} {
		if _, err := build(cfg, campaignJobs(1, 1000)); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("%s over an old-format checkpoint: %v", name, err)
		}
	}
}
