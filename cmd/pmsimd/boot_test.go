package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/profile"
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
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	addrCh := make(chan string, 1) // the one banner line; closed at EOF
	go func() {
		defer close(addrCh)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() { // keep draining after the banner so the daemon never blocks on stdout
			if rest, ok := strings.CutPrefix(sc.Text(), "pmsimd: listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if ok {
			return cmd, "http://" + addr, nil
		}
		return cmd, "", cmd.Wait() // stdout closed without a banner: it exited
	case <-time.After(15 * time.Second):
		t.Fatal("daemon neither listened nor exited")
		return nil, "", nil
	}
}

func TestPmsimdBootMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess boot matrix skipped in -short mode")
	}
	seed := smokeShard(3, 40)
	var pmdb, pmck, pmckV1 bytes.Buffer
	if err := seed.Save(&pmdb); err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteCheckpoint(&pmck, &ingest.Checkpoint{Profile: pmdb.Bytes(), Applied: []string{"boot/s000"}}); err != nil {
		t.Fatal(err)
	}
	// The same checkpoint as the last version-1 collector wrote it: a gob
	// payload, around today's image.
	if err := frame.WriteEnvelope(&pmckV1, "PMCK", 1, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(struct {
			Profile []byte
			Applied []string
		}{pmdb.Bytes(), []string{"boot/s000"}})
	}); err != nil {
		t.Fatal(err)
	}
	// What a version-1 collector left behind: its checkpoint (the frame
	// fixture, whose ledger covers a/s000) and a WAL tail admitting
	// a/s000 again and a/s009, each with a version-1 profile.
	v1pmck, v1pmdb := frameFixture(t, "small.pmck"), frameFixture(t, "small.pmdb")
	v1db, err := profile.LoadDB(bytes.NewReader(v1pmdb))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(pmdb.Bytes())
	corrupt[len(corrupt)/2] ^= 0x40
	skewed := bytes.Clone(pmck.Bytes())
	binary.LittleEndian.PutUint32(skewed[4:8], binary.LittleEndian.Uint32(skewed[4:8])+1)

	cases := []struct {
		name        string
		file        []byte // nil: no checkpoint file
		boots       bool
		samples     uint64
		quarantined bool
		ledger      bool   // the PMCK's applied shard must dedupe after the boot
		tail        []byte // with a WAL: a/s000 and a/s009 admitted with this profile
		tailSamples uint64 // what replaying the tail adds
	}{
		{name: "missing", boots: true},
		{name: "bare-pmdb", file: pmdb.Bytes(), boots: true, samples: seed.Samples()},
		{name: "pmck", file: pmckV1.Bytes(), boots: true, samples: seed.Samples(), ledger: true},
		{name: "pmck-v2", file: pmck.Bytes(), boots: true, samples: seed.Samples(), ledger: true},
		{name: "corrupt", file: corrupt, boots: true, quarantined: true},
		// The one rule for both modes: an older binary must not quietly
		// discard a newer binary's file (a PMCK v3 here).
		{name: "version-skewed", file: skewed},
		// An upgrade: the checkpoint and the WAL tail load through the
		// version-1 readers, and the final checkpoint is PMCK v2 around
		// PMDB v2.
		{name: "v1-pmck", file: v1pmck, boots: true, samples: v1db.Samples(), tail: v1pmdb, tailSamples: v1db.Samples()},
	}
	for _, c := range cases {
		for _, withWAL := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wal=%v", c.name, withWAL), func(t *testing.T) {
				t.Parallel() // each case is mostly the daemon's one-second drain
				dir := t.TempDir()
				ckpt := filepath.Join(dir, "agg.db")
				if c.file != nil {
					if err := os.WriteFile(ckpt, c.file, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				args := []string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt, "-interval", "16"}
				want := c.samples
				if withWAL {
					args = append(args, "-wal-dir", filepath.Join(dir, "wal"))
					if c.tail != nil {
						writeAdmits(t, filepath.Join(dir, "wal"), c.tail, "a/s000", "a/s009")
						want += c.tailSamples
					}
				}
				cmd, base, waitErr := bootDaemon(t, args...)
				_, qerr := os.Stat(ckpt + ".corrupt")
				if quarantined := qerr == nil; quarantined != c.quarantined {
					t.Fatalf("quarantined=%v, want %v", quarantined, c.quarantined)
				}
				if !c.boots {
					exit, ok := waitErr.(*exec.ExitError)
					if base != "" || !ok || exit.ExitCode() != 1 {
						t.Fatalf("daemon listened at %q / exited %v, want exit status 1", base, waitErr)
					}
					if left, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(left, c.file) {
						t.Fatalf("refused checkpoint was touched (read error %v)", err)
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
				if err != nil || st.Samples != want {
					t.Fatalf("serving %d samples (decode error %v), want %d", st.Samples, err, want)
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
				if v := binary.LittleEndian.Uint32(ck.Profile[4:8]); v != 2 || ck.Aggregate().Samples() != want {
					t.Fatalf("final checkpoint holds a PMDB v%d of %d samples, want v2 of %d", v, ck.Aggregate().Samples(), want)
				}
				if raw, err := os.ReadFile(ckpt); err != nil || string(raw[:4]) != "PMCK" || binary.LittleEndian.Uint32(raw[4:8]) != 2 {
					t.Fatalf("final checkpoint is not a PMCK v2 (read error %v)", err)
				}
			})
		}
	}
}

// frameFixture reads one of internal/frame's format fixtures.
func frameFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "frame", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
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
