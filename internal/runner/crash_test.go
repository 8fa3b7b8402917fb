package runner

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// The crash-recovery smoke uses the helper-process pattern: the parent
// re-execs this test binary with RUNNER_CRASH_HELPER set, the child runs
// a journaled campaign, and the parent SIGKILLs it once the journal shows
// partial progress — a real kill -9, no cooperative shutdown — then
// resumes the campaign in-process and requires the aggregate of an
// uninterrupted run, byte for byte.

const (
	crashHelperEnv = "RUNNER_CRASH_HELPER"
	crashDirEnv    = "RUNNER_CRASH_DIR"
	crashShards    = 12
	crashScale     = 3000
)

// TestCrashRecoveryHelperProcess is the child side: it only does work
// when re-execed by TestCrashRecoveryAfterKill.
func TestCrashRecoveryHelperProcess(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("helper process; driven by TestCrashRecoveryAfterKill")
	}
	f, err := New(campaignConfig(1, os.Getenv(crashDirEnv)), campaignJobs(crashShards, crashScale))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := f.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func TestCrashRecoveryAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryHelperProcess$")
	cmd.Env = append(os.Environ(), crashHelperEnv+"=1", crashDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Kill the child once it has merged some — but not all — jobs.
	deadline := time.After(60 * time.Second)
	killedAt := 0
poll:
	for {
		select {
		case err := <-exited:
			t.Fatalf("helper exited before the kill (completed %d/%d): %v", journaled(dir), crashShards, err)
		case <-deadline:
			t.Fatal("helper made no checkpoint progress within 60s")
		case <-time.After(2 * time.Millisecond):
			if n := journaled(dir); n >= 2 && n < crashShards {
				cmd.Process.Kill()
				killedAt = n
				break poll
			}
		}
	}
	<-exited // reap; exit status is the kill signal, not an error here

	// Every record the kill left behind survives, and the campaign
	// finishes to the uninterrupted run's aggregate with identical seeds.
	jobs := campaignJobs(crashShards, crashScale)
	if n := journaled(dir); n < killedAt {
		t.Fatalf("journal holds %d records after the kill, held %d before it", n, killedAt)
	}
	want := image(t, runCampaign(t, campaignConfig(2, ""), jobs))
	f := finish(t, campaignConfig(1, dir), jobs, want, "kill -9")
	requireEachDoneOnce(t, dir, jobs)
	t.Logf("killed at %d/%d jobs; recovered aggregate is the reference image (%d samples)",
		killedAt, crashShards, f.Profile().Samples())
}
