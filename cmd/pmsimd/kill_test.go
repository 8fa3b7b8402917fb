package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// The kill -9 loop is the durability acceptance test: a WAL-backed
// pmsimd is SIGKILLed at five random points while a flooder hammers
// /v1/submit, restarting from the same checkpoint+WAL each time. The
// submission contract under test is exactly the one clients rely on:
//
//   - every 202 is durable — no acknowledged sample may be destroyed by
//     a kill at any instruction;
//   - a retry of anything already acknowledged dedupes to
//     202+duplicate, even across a crash (the admission ledger is
//     recovered, not just the counters);
//   - a submission whose connection died mid-kill has unknown fate and
//     is simply retried — the ledger makes the retry idempotent.
//
// After the final restart every shard ever generated has been
// acknowledged exactly once, so conservation is EXACT: the aggregate's
// Samples+Lost equals Σ captured over the distinct shards, with zero
// crash-attributed loss.

const (
	killHelperEnv = "PMSIMD_KILL_HELPER"
	killDirEnv    = "PMSIMD_KILL_DIR"
)

// TestPmsimdKillHelperProcess is the child side: it becomes a
// WAL-backed daemon when re-execed by TestPmsimdKillNineLoop.
func TestPmsimdKillHelperProcess(t *testing.T) {
	if os.Getenv(killHelperEnv) != "1" {
		t.Skip("helper process; driven by TestPmsimdKillNineLoop")
	}
	dir := os.Getenv(killDirEnv)
	os.Args = []string{"pmsimd",
		"-addr", "127.0.0.1:0",
		"-checkpoint", filepath.Join(dir, "agg.db"),
		"-checkpoint-every", "4",
		"-wal-dir", filepath.Join(dir, "wal"),
		"-interval", "16",
		"-queue", "256",
	}
	os.Exit(run())
}

// killDaemon is one incarnation of the daemon between kills.
type killDaemon struct {
	cmd  *exec.Cmd
	base string
	log  *daemonLog
}

func startKillDaemon(t *testing.T, dir string) *killDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestPmsimdKillHelperProcess$")
	cmd.Env = append(os.Environ(), killHelperEnv+"=1", killDirEnv+"="+dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &killDaemon{cmd: cmd, log: readLog(stderr)}
	t.Cleanup(func() { cmd.Process.Kill() })
	addr := d.log.listening(t, 15*time.Second)
	if addr == "" {
		t.Fatalf("daemon exited without listening\n%s", d.log)
	}
	d.base = "http://" + addr
	return d
}

// killSubmit posts one shard; the error covers connection-level
// failures (fate unknown — the caller retries after the next restart).
func killSubmit(base, shard string, db *profile.DB) (status int, duplicate bool, err error) {
	body, err := ingest.EncodeSubmit(shard, db)
	if err != nil {
		return 0, false, err
	}
	resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var out struct {
		Duplicate bool `json:"duplicate"`
	}
	if decErr := json.NewDecoder(resp.Body).Decode(&out); decErr != nil {
		return resp.StatusCode, false, nil // tolerate non-JSON error bodies
	}
	return resp.StatusCode, out.Duplicate, nil
}

func killStats(base string) (samples, lost uint64, err error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Samples uint64 `json:"samples"`
		Lost    uint64 `json:"lost"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, err
	}
	return m.Samples, m.Lost, nil
}

func TestPmsimdKillNineLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill loop skipped in -short mode")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0x7015)) // deterministic "random" kill points

	const kills = 5
	var (
		mu       sync.Mutex
		payloads = map[string]*profile.DB{} // every shard ever generated
		acked    = map[string]bool{}        // shards with an observed 202
		next     int
	)
	unacked := func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for s := range payloads {
			if !acked[s] {
				out = append(out, s)
			}
		}
		return out
	}
	anyAcked := func() (string, *profile.DB) {
		mu.Lock()
		defer mu.Unlock()
		for s := range acked {
			return s, payloads[s]
		}
		return "", nil
	}

	for round := 0; round <= kills; round++ {
		d := startKillDaemon(t, dir)
		if round > 0 {
			if len(d.log.records("recovered")) != 1 {
				t.Fatalf("round %d: restart did not log one recovery record\n%s", round, d.log)
			}
			// Everything acknowledged before the kill must still dedupe:
			// retrying it comes back 202 with duplicate=true.
			if s, db := anyAcked(); s != "" {
				status, dup, err := killSubmit(d.base, s, db)
				if err != nil || status != http.StatusAccepted || !dup {
					t.Fatalf("round %d: post-crash retry of acked %s: err=%v status=%d duplicate=%v (want 202+duplicate)",
						round, s, err, status, dup)
				}
			}
			// Unknown-fate submissions from the kill window are retried;
			// fresh or duplicate, each must land a 202 now.
			for _, s := range unacked() {
				mu.Lock()
				db := payloads[s]
				mu.Unlock()
				deadline := time.Now().Add(10 * time.Second)
				for {
					status, _, err := killSubmit(d.base, s, db)
					if err == nil && status == http.StatusAccepted {
						mu.Lock()
						acked[s] = true
						mu.Unlock()
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("round %d: retry of %s never accepted (last err=%v status=%d)", round, s, err, status)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}
		if round == kills {
			// Final incarnation: no more kills; verify and drain below.
			finishKillLoop(t, d, dir, payloads, acked, &mu)
			return
		}

		// Flood new shards until the kill; record each payload BEFORE the
		// post so an unacknowledged in-flight shard is retried next round.
		stop := make(chan struct{})
		floodDone := make(chan struct{})
		go func() {
			defer close(floodDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				name := fmt.Sprintf("kill/s%04d", i)
				db := smokeShard(uint64(i)+7, 20+i%17)
				mu.Lock()
				payloads[name] = db
				mu.Unlock()
				status, _, err := killSubmit(d.base, name, db)
				if err != nil {
					continue // daemon died mid-request: fate unknown
				}
				if status == http.StatusAccepted {
					mu.Lock()
					acked[name] = true
					mu.Unlock()
				}
			}
		}()

		// SIGKILL at a random point in the flood. No warning, no flush —
		// whatever the daemon acknowledged must already be on disk.
		time.Sleep(time.Duration(20+rng.Intn(120)) * time.Millisecond)
		if err := d.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		d.cmd.Wait()
		close(stop)
		<-floodDone
	}
}

// finishKillLoop runs the post-loop verification on the last
// incarnation: exact conservation on the live daemon, then a graceful
// drain whose final checkpoint carries the same totals.
func finishKillLoop(t *testing.T, d *killDaemon, dir string, payloads map[string]*profile.DB, acked map[string]bool, mu *sync.Mutex) {
	t.Helper()
	mu.Lock()
	var wantTotal uint64
	for s, db := range payloads {
		if !acked[s] {
			t.Fatalf("shard %s still unacknowledged after final retries", s)
		}
		wantTotal += db.Samples() + db.Lost()
	}
	distinct := len(payloads)
	mu.Unlock()
	if distinct < 3*5 {
		t.Fatalf("flood produced only %d distinct shards across the kill rounds; too few to mean anything", distinct)
	}

	// Merging is async behind the queue: poll until the aggregate settles
	// at EXACT conservation — Σ captured over distinct shards, with zero
	// crash-attributed loss (transient refusal loss is reversed when the
	// retry lands, so nonzero lost here means a kill destroyed samples).
	deadline := time.Now().Add(15 * time.Second)
	var samples, lost uint64
	for {
		var err error
		samples, lost, err = killStats(d.base)
		if err == nil && samples+lost == wantTotal && lost == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation never reached exact: samples=%d lost=%d, want samples+lost=%d lost=0 over %d shards",
				samples, lost, wantTotal, distinct)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful drain: the final checkpoint must carry the identical
	// totals, and the WAL mustn't resurrect anything on a re-read.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { <-d.log.eof; waited <- d.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon did not exit cleanly after SIGTERM: %v\n%s", err, d.log)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within the drain budget")
	}
	ck, err := ingest.LoadCheckpointFile(filepath.Join(dir, "agg.db"))
	if err != nil || ck == nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	db := ck.Aggregate()
	if got := db.Samples() + db.Lost(); got != wantTotal || db.Lost() != 0 {
		t.Fatalf("final checkpoint samples=%d lost=%d, want samples+lost=%d lost=0", db.Samples(), db.Lost(), wantTotal)
	}
	if len(ck.Applied) < distinct {
		t.Fatalf("final checkpoint ledger covers %d shards, want at least %d", len(ck.Applied), distinct)
	}
}
