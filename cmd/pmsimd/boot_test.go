package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/wal"
)

// The boot matrix: pmsimd starts one way — ingest.Recover — whatever it
// finds at -checkpoint, with or without -wal-dir. Same helper-process
// pattern as the smoke test; the arguments ride in the environment.

const (
	bootHelperEnv = "PMSIMD_BOOT_HELPER"
	bootArgsEnv   = "PMSIMD_BOOT_ARGS"
)

func TestPmsimdBootHelperProcess(t *testing.T) {
	if os.Getenv(bootHelperEnv) != "1" {
		t.Skip("helper process; driven by TestPmsimdBootMatrix")
	}
	os.Args = append([]string{"pmsimd"}, strings.Split(os.Getenv(bootArgsEnv), "\n")...)
	os.Exit(run())
}

// bootDaemon starts pmsimd and waits until it listens or exits: base is
// "" when it exited first, and waitErr is then its exit status.
func bootDaemon(t *testing.T, args ...string) (cmd *exec.Cmd, base string, waitErr error) {
	t.Helper()
	cmd = exec.Command(os.Args[0], "-test.run=TestPmsimdBootHelperProcess$")
	cmd.Env = append(os.Environ(), bootHelperEnv+"=1", bootArgsEnv+"="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	// The reader keeps draining past the listening record so the daemon
	// never blocks on stderr.
	if addr := readLog(stderr).listening(t, 15*time.Second); addr != "" {
		return cmd, "http://" + addr, nil
	}
	return cmd, "", cmd.Wait() // stderr ended without a listening record: it exited
}

func TestPmsimdBootMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess boot matrix skipped in -short mode")
	}
	seed := smokeShard(3, 40)
	var pmdb, pmck, covering bytes.Buffer
	if err := seed.Save(&pmdb); err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteCheckpoint(&pmck, &ingest.Checkpoint{Profile: pmdb.Bytes(), Applied: []string{"boot/s000"}}); err != nil {
		t.Fatal(err)
	}
	// A checkpoint whose ledger covers the WAL tail's two admits, as a
	// drain on a build that still read version 1 leaves it.
	if err := ingest.WriteCheckpoint(&covering, &ingest.Checkpoint{Profile: pmdb.Bytes(),
		Applied: []string{"a/s000", "a/s009", "boot/s000"}}); err != nil {
		t.Fatal(err)
	}
	// relabel is b with its envelope's version set to v. Version 1 was
	// the gob format, which this build no longer reads whatever the
	// payload.
	relabel := func(b []byte, v uint32) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint32(b[4:8], v)
		return b
	}
	corrupt := bytes.Clone(pmdb.Bytes())
	corrupt[len(corrupt)/2] ^= 0x40

	cases := []struct {
		name        string
		file        []byte // nil: no checkpoint file
		boots       bool
		samples     uint64
		quarantined bool
		ledger      bool   // the PMCK's applied shard must dedupe after the boot
		tail        []byte // with a WAL: a/s000 and a/s009 admitted with this profile
		tailRefused bool   // with a WAL, the tail refuses the boot
	}{
		{name: "missing", boots: true},
		{name: "bare-pmdb", file: pmdb.Bytes(), boots: true, samples: seed.Samples()},
		{name: "pmck-v2", file: pmck.Bytes(), boots: true, samples: seed.Samples(), ledger: true},
		{name: "corrupt", file: corrupt, boots: true, quarantined: true},
		// The one rule for both modes: a binary must not quietly discard
		// a file of a version it does not read — a newer binary's (a PMCK
		// v3 here), or a version-1 one, bare PMDB or PMCK.
		{name: "version-skewed", file: relabel(pmck.Bytes(), 3)},
		{name: "bare-pmdb-v1", file: relabel(pmdb.Bytes(), 1)},
		{name: "pmck", file: relabel(pmck.Bytes(), 1)},
		// What a version-1 collector left undrained: its checkpoint and a
		// WAL tail of version-1 profiles, both refused and both untouched.
		{name: "v1-pmck", file: relabel(pmck.Bytes(), 1), tail: relabel(pmdb.Bytes(), 1)},
		// A version-1 admit the checkpoint does not cover refuses the boot
		// and leaves the segment as it was; without a WAL there is no tail.
		{name: "v1-tail", file: pmck.Bytes(), boots: true, samples: seed.Samples(), ledger: true,
			tail: relabel(pmdb.Bytes(), 1), tailRefused: true},
		// One the ledger covers is skipped undecoded, and the boot writes
		// PMCK v2 as every booting case does.
		{name: "v1-tail-covered", file: covering.Bytes(), boots: true, samples: seed.Samples(), ledger: true,
			tail: relabel(pmdb.Bytes(), 1)},
	}
	for _, c := range cases {
		for _, withWAL := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wal=%v", c.name, withWAL), func(t *testing.T) {
				t.Parallel() // each case is mostly the daemon's one-second drain
				dir := t.TempDir()
				ckpt, walDir := filepath.Join(dir, "agg.db"), filepath.Join(dir, "wal")
				if c.file != nil {
					if err := os.WriteFile(ckpt, c.file, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				args := []string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt, "-interval", "16"}
				boots := c.boots
				var segments map[string][]byte
				if withWAL {
					args = append(args, "-wal-dir", walDir)
					if c.tail != nil {
						writeAdmits(t, walDir, c.tail, "a/s000", "a/s009")
						segments = readDir(t, walDir)
					}
					boots = boots && !c.tailRefused
				}
				cmd, base, waitErr := bootDaemon(t, args...)
				_, qerr := os.Stat(ckpt + ".corrupt")
				if quarantined := qerr == nil; quarantined != c.quarantined {
					t.Fatalf("quarantined=%v, want %v", quarantined, c.quarantined)
				}
				if !boots {
					exit, ok := waitErr.(*exec.ExitError)
					if base != "" || !ok || exit.ExitCode() != 1 {
						t.Fatalf("daemon listened at %q / exited %v, want exit status 1", base, waitErr)
					}
					if left, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(left, c.file) {
						t.Fatalf("refused checkpoint was touched (read error %v)", err)
					}
					if segments != nil && !reflect.DeepEqual(readDir(t, walDir), segments) {
						t.Fatal("refused boot touched the WAL directory")
					}
					return
				}
				if base == "" {
					t.Fatalf("daemon exited (%v), want it serving", waitErr)
				}
				var st ingest.Stats
				resp, err := http.Get(base + "/v1/stats")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || st.Samples != c.samples {
					t.Fatalf("serving %d samples (decode error %v), want %d", st.Samples, err, c.samples)
				}
				if c.ledger {
					body, err := ingest.EncodeSubmit("boot/s000", seed)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					var ack struct {
						Duplicate bool `json:"duplicate"`
					}
					err = json.NewDecoder(resp.Body).Decode(&ack)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusAccepted || !ack.Duplicate {
						t.Fatalf("retry of a checkpointed shard: status %d duplicate=%v (%v), want 202 duplicate", resp.StatusCode, ack.Duplicate, err)
					}
				}
				http.DefaultClient.CloseIdleConnections() // or the drain waits out the keep-alive
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				if err := cmd.Wait(); err != nil {
					t.Fatalf("daemon did not drain cleanly: %v", err)
				}
				ck, err := ingest.LoadCheckpointFile(ckpt)
				if err != nil || ck == nil {
					t.Fatalf("final checkpoint: %v", err)
				}
				if v := binary.LittleEndian.Uint32(ck.Profile[4:8]); v != 2 || ck.Aggregate().Samples() != c.samples {
					t.Fatalf("final checkpoint holds a PMDB v%d of %d samples, want v2 of %d", v, ck.Aggregate().Samples(), c.samples)
				}
				if raw, err := os.ReadFile(ckpt); err != nil || string(raw[:4]) != "PMCK" || binary.LittleEndian.Uint32(raw[4:8]) != 2 {
					t.Fatalf("final checkpoint is not a PMCK v2 (read error %v)", err)
				}
			})
		}
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeAdmits writes a WAL in dir holding one admit record per shard,
// each carrying profile.
func writeAdmits(t *testing.T, dir string, profile []byte, shards ...string) {
	t.Helper()
	l, _, err := wal.Open(wal.Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range shards {
		rec, err := json.Marshal(map[string]any{"kind": "admit", "shard": shard, "profile": profile})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
