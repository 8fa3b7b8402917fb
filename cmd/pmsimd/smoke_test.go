package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// The end-to-end smoke uses the helper-process pattern (like the
// runner's crash test): the parent re-execs this test binary as a real
// pmsimd daemon, submits two shards over real HTTP, queries the hot-PC
// ranking, then SIGTERMs the daemon and verifies the drain: clean exit,
// a log of whole JSON records with one recovery and one drain record,
// nothing on stdout, and a CRC-valid final checkpoint carrying both
// shards.

const (
	smokeHelperEnv = "PMSIMD_SMOKE_HELPER"
	smokeDirEnv    = "PMSIMD_SMOKE_DIR"
)

// TestPmsimdHelperProcess is the child side: it becomes the daemon when
// re-execed by TestPmsimdSmoke.
func TestPmsimdHelperProcess(t *testing.T) {
	if os.Getenv(smokeHelperEnv) != "1" {
		t.Skip("helper process; driven by TestPmsimdSmoke")
	}
	os.Args = []string{"pmsimd",
		"-addr", "127.0.0.1:0",
		"-checkpoint", filepath.Join(os.Getenv(smokeDirEnv), "agg.db"),
		"-interval", "16",
		"-queue", "8",
		"-instance", "smoke",
	}
	os.Exit(run())
}

// smokeShard builds a daemon-compatible shard (interval 16, width 4).
func smokeShard(seed uint64, samples int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < samples; i++ {
		r := core.Record{PC: 0x400 + 8*((seed+uint64(i)*3)%11), LoadComplete: -1}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		r.Events = core.EvRetired
		db.Add(core.Sample{First: r})
	}
	return db
}

func TestPmsimdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestPmsimdHelperProcess$")
	cmd.Env = append(os.Environ(), smokeHelperEnv+"=1", smokeDirEnv+"="+dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The bound address is in the listening record; the rest of the log
	// is kept for the drain assertions.
	log := readLog(stderr)
	addr := log.listening(t, 10*time.Second)
	if addr == "" {
		t.Fatalf("daemon exited without listening\n%s", log)
	}
	base := "http://" + addr

	// Submit two shards and account their totals.
	var wantSamples uint64
	for i, samples := range []int{30, 50} {
		db := smokeShard(uint64(i), samples)
		wantSamples += db.Samples()
		body, err := ingest.EncodeSubmit(fmt.Sprintf("smoke/s%03d", i), db)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}

	// The live daemon answers queries.
	resp, err := http.Get(base + "/v1/hotpcs?n=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hotpcs: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: status %d", resp.StatusCode)
	}

	// SIGTERM → graceful drain → exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the pipe, so it runs only after the last line is read.
	waited := make(chan error, 1)
	go func() { <-log.eof; waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon did not exit cleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within the drain budget")
	}
	if stdout.Len() > 0 {
		t.Fatalf("daemon wrote to stdout:\n%s", stdout.String())
	}
	if err := log.check("smoke", map[string]int{"recovered": 1, "drained": 1}); err != nil {
		t.Fatal(err)
	}
	if d := log.records("drained")[0]; d["samples"] != float64(wantSamples) || d["checkpoint"] != filepath.Join(dir, "agg.db") {
		t.Fatalf("drain record %v, want %d samples and the checkpoint path", d, wantSamples)
	}

	// The final checkpoint is CRC-valid and carries both shards.
	ck, err := ingest.LoadCheckpointFile(filepath.Join(dir, "agg.db"))
	if err != nil || ck == nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	loaded := ck.Aggregate()
	if loaded.Samples() != wantSamples {
		t.Fatalf("checkpoint samples %d, want %d", loaded.Samples(), wantSamples)
	}
	if loaded.Lost() != 0 {
		t.Fatalf("checkpoint lost %d, want 0 (nothing was refused)", loaded.Lost())
	}
}
