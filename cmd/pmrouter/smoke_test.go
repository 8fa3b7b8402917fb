package main

import (
	"bytes"
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

	"profileme/internal/cluster"
	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// The tier smoke runs the real thing: two pmsimd collector processes
// (built from this module) fronted by a real pmrouter process (this test
// binary re-execed). One collector — running a WAL — is SIGKILLed; the
// router must serve explicit partial results and fail submissions over.
// The collector is then restarted at the same address with the same WAL
// dir, and must recover EVERYTHING it acknowledged before the kill:
// retries of its shards dedupe to 202+duplicate, and the final fleet
// rollup reproduces Σ captured over every distinct shard exactly — the
// kill is not allowed to destroy a single acknowledged sample. Finally
// the surviving peer leaves the tier the one way there is — the router
// removes it, then it is SIGTERMed — and its aggregate must live on at
// the restarted instance, zero samples lost, nothing written back.

const (
	smokeHelperEnv = "PMROUTER_SMOKE_HELPER"
	smokeArgsEnv   = "PMROUTER_SMOKE_ARGS"
)

// TestPmrouterHelperProcess is the child side: it becomes the router
// daemon when re-execed by TestTierSmoke.
func TestPmrouterHelperProcess(t *testing.T) {
	if os.Getenv(smokeHelperEnv) != "1" {
		t.Skip("helper process; driven by TestTierSmoke")
	}
	os.Args = append([]string{"pmrouter"}, strings.Fields(os.Getenv(smokeArgsEnv))...)
	os.Exit(run())
}

// daemon is one child process. Its stderr is one JSON record per line,
// and the listening record announces its address; its stdout stays
// empty.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout bytes.Buffer
	log    *daemonLog
}

// startDaemon launches argv, reads the address from its listening
// record, and keeps collecting records for later assertions.
func startDaemon(t *testing.T, env []string, argv ...string) *daemon {
	t.Helper()
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = env
	d := &daemon{cmd: cmd}
	cmd.Stdout = &d.stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	d.log = readLog(stderr)
	if d.addr = d.log.listening(t, 15*time.Second); d.addr == "" {
		t.Fatalf("%s exited without logging its listen address\n%s", argv[0], d.log)
	}
	return d
}

// check fails t unless stdout is empty and the stderr records pass
// daemonLog.check.
func (d *daemon) check(t *testing.T, name, instance string, want map[string]int) {
	t.Helper()
	if d.stdout.Len() > 0 {
		t.Fatalf("%s wrote to stdout:\n%s", name, d.stdout.String())
	}
	if err := d.log.check(instance, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestLogReaderMatchesPmsimd: the stderr reader in log_test.go is
// cmd/pmsimd's, byte for byte, so a change to one is made to both.
func TestLogReaderMatchesPmsimd(t *testing.T) {
	ours, err := os.ReadFile("log_test.go")
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := os.ReadFile("../pmsimd/log_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ours, theirs) {
		t.Fatal("cmd/pmrouter/log_test.go differs from cmd/pmsimd/log_test.go: make the same change to both")
	}
}

// terminate SIGTERMs the daemon and requires exit status 0 within budget.
func (d *daemon) terminate(t *testing.T, name string, budget time.Duration) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the pipe: read the last lines (the exit report) first.
	waited := make(chan error, 1)
	go func() { <-d.log.eof; waited <- d.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("%s did not exit cleanly after SIGTERM: %v\n%s", name, err, d.log)
		}
	case <-time.After(budget):
		t.Fatalf("%s did not exit within %v of SIGTERM", name, budget)
	}
}

// smokeShard builds a tier-compatible shard (interval 16, width 4).
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

type smokeSubmitResp struct {
	status    int
	Duplicate bool   `json:"duplicate"`
	Instance  string `json:"instance"`
}

func smokeSubmit(t *testing.T, routerURL, shard string, db *profile.DB) (smokeSubmitResp, error) {
	t.Helper()
	body, err := ingest.EncodeSubmit(shard, db)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return smokeSubmitResp{}, err
	}
	defer resp.Body.Close()
	out := smokeSubmitResp{status: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return smokeSubmitResp{}, err
	}
	return out, nil
}

func smokeGet(t *testing.T, url string) (int, map[string]any, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &m); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, m, nil
}

func TestTierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short mode")
	}
	dir := t.TempDir()
	env := os.Environ()

	// Build the collector binary once from this module.
	pmsimd := filepath.Join(dir, "pmsimd")
	if out, err := exec.Command("go", "build", "-o", pmsimd, "profileme/cmd/pmsimd").CombinedOutput(); err != nil {
		t.Fatalf("building pmsimd: %v\n%s", err, out)
	}

	// Process 1: collector c0 (will be SIGKILLed and restarted). It runs
	// a WAL + checkpoint so the kill destroys nothing it acknowledged.
	c0Args := []string{
		"-addr", "127.0.0.1:0", "-instance", "c0", "-interval", "16", "-queue", "64",
		"-wal-dir", filepath.Join(dir, "wal0"),
		"-checkpoint", filepath.Join(dir, "agg0.db"), "-checkpoint-every", "2",
	}
	d0 := startDaemon(t, env, append([]string{pmsimd}, c0Args...)...)
	url0 := "http://" + d0.addr

	// Process 2: collector c1 (will be removed from the tier, then
	// SIGTERMed). It knows its id, not its peers.
	d1 := startDaemon(t, env, pmsimd,
		"-addr", "127.0.0.1:0", "-instance", "c1", "-interval", "16", "-queue", "64",
		"-wal-dir", filepath.Join(dir, "wal1"),
		"-checkpoint", filepath.Join(dir, "agg1.db"), "-checkpoint-every", "2")
	url1 := "http://" + d1.addr

	// Process 3: the router (this test binary re-execed as pmrouter),
	// with a fast probe loop so kill/recovery are observed quickly.
	routerArgs := fmt.Sprintf("-addr 127.0.0.1:0 -instances c0=%s,c1=%s -probe-every 100ms -failure-threshold 2",
		url0, url1)
	router := startDaemon(t, append(env, smokeHelperEnv+"=1", smokeArgsEnv+"="+routerArgs),
		os.Args[0], "-test.run=TestPmrouterHelperProcess$")
	front := "http://" + router.addr

	// Pick shard ids with known owners on the default ring (the router
	// runs default vnodes/seed), so both instances receive work.
	ring := cluster.NewRing(0, 0)
	ring.Add("c0")
	ring.Add("c1")
	shardsOf := map[string][]string{}
	for i := 0; len(shardsOf["c0"]) < 3 || len(shardsOf["c1"]) < 3; i++ {
		s := fmt.Sprintf("smoke/s%03d", i)
		owner, _ := ring.Owner(s)
		if len(shardsOf[owner]) < 3 {
			shardsOf[owner] = append(shardsOf[owner], s)
		}
	}

	// Submit three shards per instance through the router; all must land
	// on their ring owner. Keep the exact payloads around so post-crash
	// retries can be replayed bit-identically.
	captured := map[string]uint64{}
	payload := map[string]*profile.DB{}
	seed := uint64(1)
	for owner, ss := range shardsOf {
		for _, s := range ss {
			db := smokeShard(seed, 40+int(seed))
			seed++
			captured[s] = db.Samples() + db.Lost()
			payload[s] = db
			got, err := smokeSubmit(t, front, s, db)
			if err != nil || got.status != http.StatusAccepted {
				t.Fatalf("submit %s: %v status %d", s, err, got.status)
			}
			if got.Instance != owner {
				t.Fatalf("shard %s landed on %s, ring owner is %s", s, got.Instance, owner)
			}
		}
	}
	status, hot, err := smokeGet(t, front+"/v1/hotpcs?n=5")
	if err != nil || status != http.StatusOK || hot["partial"].(bool) {
		t.Fatalf("healthy tier hotpcs: %v status %d partial %v", err, status, hot["partial"])
	}

	// SIGKILL c0. The router must keep serving — partial — and fail new
	// c0-owned submissions over to c1.
	if err := d0.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d0.log.eof
	d0.cmd.Wait() // stdout is copied until Wait returns
	d0.check(t, "killed c0", "c0", map[string]int{"recovered": 1, "drained": 0})

	failoverShard := ""
	for i := 1000; ; i++ {
		s := fmt.Sprintf("smoke/s%03d", i)
		if owner, _ := ring.Owner(s); owner == "c0" {
			failoverShard = s
			break
		}
	}
	fdb := smokeShard(99, 70)
	captured[failoverShard] = fdb.Samples() + fdb.Lost()
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := smokeSubmit(t, front, failoverShard, fdb)
		if err == nil && got.status == http.StatusAccepted {
			if got.Instance != "c1" {
				t.Fatalf("failover submission landed on %s, want c1", got.Instance)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover submission never accepted (last: %v %+v)", err, got)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		status, hot, err = smokeGet(t, front+"/v1/hotpcs?n=5")
		if err == nil && status == http.StatusOK && hot["partial"].(bool) {
			break // explicit degradation, not a 504
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never served explicit partial results after the kill (last: %v %d %v)", err, status, hot)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Recovery: restart c0 at the SAME address (the router's table points
	// its ring identity there) with the SAME WAL dir and
	// checkpoint, so everything it acknowledged before the kill is
	// replayed; the probe loop revives it.
	restartArgs := append([]string{}, c0Args...)
	restartArgs[1] = d0.addr // pin the original address
	d0 = startDaemon(t, env, append([]string{pmsimd}, restartArgs...)...)

	// Post-crash dedupe: retrying a shard c0 acknowledged before the kill
	// must come back 202 with duplicate=true — the admission ledger
	// survived the SIGKILL via checkpoint+WAL replay.
	retry := shardsOf["c0"][0]
	got, err := smokeSubmit(t, "http://"+d0.addr, retry, payload[retry])
	if err != nil || got.status != http.StatusAccepted {
		t.Fatalf("post-crash retry of %s: %v status %d", retry, err, got.status)
	}
	if !got.Duplicate {
		t.Fatalf("post-crash retry of %s was not deduplicated: %+v (WAL replay lost the admission ledger)", retry, got)
	}
	for {
		status, hot, err = smokeGet(t, front+"/v1/hotpcs?n=5")
		if err == nil && status == http.StatusOK && !hot["partial"].(bool) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never recovered after c0 restart (last: %v %d %v)", err, status, hot)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Scale-in of c1: the router's removal migrates its books to c0 —
	// "remove until 200" — and only then is the process SIGTERMed. It
	// must exit 0 having written nothing back: the fleet is c0 alone,
	// holding its own WAL-recovered shards plus everything c1 migrated —
	// i.e. every sample ever acknowledged by the tier. The conservation
	// check is exact: the SIGKILL destroyed nothing.
	var wantTotal uint64
	for _, c := range captured {
		wantTotal += c
	}
	for {
		resp, err := http.Post(front+"/v1/membership/remove", "application/json", strings.NewReader(`{"id":"c1"}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("removal of c1 never answered 200 (last: %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	d1.terminate(t, "c1", 30*time.Second)
	d1.check(t, "c1", "c1", map[string]int{"recovered": 1, "drained": 1})
	if drained := d1.log.records("drained")[0]; drained["retired"] != true || drained["checkpoint"] != nil {
		t.Fatalf("removed c1 did not exit as a retired instance: %v", drained)
	}
	if _, err := os.Stat(filepath.Join(dir, "agg1.db")); !os.IsNotExist(err) {
		t.Fatalf("removed c1 left a live checkpoint behind (stat: %v)", err)
	}

	// The restarted c0 now carries its own recovered shards plus c1's
	// whole aggregate; the router's fleet rollup — whole again, c1 is no
	// longer a member — must reproduce Σ captured over every distinct
	// shard exactly.
	status, stats, err := smokeGet(t, front+"/v1/stats")
	if err != nil || status != http.StatusOK || stats["partial"].(bool) {
		t.Fatalf("stats after the scale-in: %v status %d %v", err, status, stats)
	}
	fleet := stats["fleet"].(map[string]any)
	if in, got := uint64(fleet["handoffs_in"].(float64)), uint64(fleet["samples"].(float64)+fleet["lost"].(float64)); in != 1 || got != wantTotal {
		t.Fatalf("fleet after the scale-in: handoffs_in %d, captured %d, want 1 and exactly %d", in, got, wantTotal)
	}

	// The router itself drains cleanly.
	router.terminate(t, "router", 15*time.Second)
	router.check(t, "router", "", map[string]int{"listening": 1, "stopped": 1})
	d0.cmd.Process.Kill()
	<-d0.log.eof
	d0.cmd.Wait() // stdout is copied until Wait returns
	d0.check(t, "restarted c0", "c0", map[string]int{"recovered": 1})
}

// TestAntiEntropyNeedsWitness: -anti-entropy-every without -witness is
// refused with exit status 2 before the port is bound, so nothing is
// logged as listening.
func TestAntiEntropyNeedsWitness(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestPmrouterHelperProcess$")
	cmd.Env = append(os.Environ(), smokeHelperEnv+"=1",
		smokeArgsEnv+"=-addr 127.0.0.1:0 -instances c0=http://127.0.0.1:1 -anti-entropy-every 1s")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 || strings.Contains(string(out), "listening") {
		t.Fatalf("pmrouter -anti-entropy-every without -witness: %v, want exit status 2 and no listening output\n%s", err, out)
	}
}
