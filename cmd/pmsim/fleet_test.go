package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// The fleet smoke uses the helper-process pattern (like pmsimd's kill
// test): the parent re-execs this test binary as a real pmsim, SIGKILLs a
// journaled campaign partway, resumes it with -resume, and requires the
// -save of an uninterrupted run at the same seed, byte for byte. Then the
// refusals: each must exit 2 before anything runs and write nothing.

const fleetHelperEnv = "PMSIM_FLEET_HELPER_ARGS"

// TestPmsimFleetHelperProcess is the child side: it becomes pmsim with
// the arguments TestFleetKillResumeAndRefusals passed in the environment.
func TestPmsimFleetHelperProcess(t *testing.T) {
	args := os.Getenv(fleetHelperEnv)
	if args == "" {
		t.Skip("helper process; driven by TestFleetKillResumeAndRefusals")
	}
	os.Args = append([]string{"pmsim"}, strings.Fields(args)...)
	main()
	os.Exit(0) // non-fleet paths of main return instead of exiting
}

// pmsimCmd builds (without starting) one pmsim process.
func pmsimCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=TestPmsimFleetHelperProcess$")
	cmd.Env = append(os.Environ(), fleetHelperEnv+"="+strings.Join(args, " "))
	return cmd
}

// dirImage renders every file under dir, so "nothing written" is one
// string comparison.
func dirImage(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(e.Name() + "\x00" + string(data) + "\x00")
	}
	return b.String()
}

func TestFleetKillResumeAndRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet test skipped in -short mode")
	}
	tmp := t.TempDir()
	camp, got, want := filepath.Join(tmp, "d"), filepath.Join(tmp, "a.db"), filepath.Join(tmp, "ref.db")
	campaign := []string{"-bench", "compress", "-fleet", "2", "-shards", "8", "-scale", "100000"}
	with := func(extra ...string) []string { return append(append([]string{}, campaign...), extra...) }

	if out, err := pmsimCmd(with("-save", want)...).CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted campaign: %v\n%s", err, out)
	}

	// kill -9 once the journal holds at least two outcomes.
	cmd := pmsimCmd(with("-checkpoint", camp, "-save", got)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if info, _ := wal.Replay(camp, nil); info.Records >= 2 {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("campaign exited before two outcomes were journaled: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no journal progress within 60s")
		}
	}
	cmd.Process.Kill()
	<-exited
	if _, err := os.Stat(got); err == nil {
		t.Skip("campaign finished before the kill landed; nothing to resume")
	}

	if out, err := pmsimCmd(with("-checkpoint", camp, "-resume", "-save", got)...).CombinedOutput(); err != nil ||
		!strings.Contains(string(out), "level=INFO msg=resumed component=runner ") {
		t.Fatalf("resume after kill -9: %v\n%s", err, out)
	}
	a, _ := os.ReadFile(got)
	ref, err := os.ReadFile(want)
	if err != nil || !bytes.Equal(a, ref) {
		t.Fatalf("resumed -save (%d bytes) differs from the uninterrupted run's (%d bytes, %v)", len(a), len(ref), err)
	}

	// The refusals: exit 2, the message, and not a byte written.
	old := filepath.Join(tmp, "old")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "manifest-00000001.json"), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, dir, msg string
		extra          []string
	}{
		{"resume at another seed", camp, "fleet seed 1 does not match configured seed 9", []string{"-resume", "-seed", "9"}},
		{"resume at another interval", camp, "sampling configuration S=512", []string{"-resume", "-interval", "64"}},
		{"resume paired", camp, "does not match configured S=512 W=80", []string{"-resume", "-paired"}},
		{"fresh campaign over a held directory", camp, "already holds a campaign", nil},
		{"pre-journal manifest", old, "manifest-00000001.json", nil},
		// Flags the fleet cannot honour are refused, not dropped.
		{"edges with -fleet", camp, "-edges reports on a single run", []string{"-resume", "-edges"}},
		{"proc with -fleet", camp, "-proc reports on a single run", []string{"-resume", "-proc"}},
		{"disasm with -fleet", camp, "-disasm reports on a single run", []string{"-resume", "-disasm"}},
		{"chaos-seed with -fleet", camp, "-chaos-seed reports on a single run", []string{"-resume", "-chaos-seed", "3"}},
		{"unknown -randomize", camp, "-randomize \"poisson\"", []string{"-resume", "-randomize", "poisson"}},
	} {
		before, unsaved := dirImage(t, tc.dir), filepath.Join(tmp, "refused.db")
		out, err := pmsimCmd(with(append(tc.extra, "-checkpoint", tc.dir, "-save", unsaved)...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.msg) {
			t.Errorf("%s: want exit 2 naming %q, got %v\n%s", tc.name, tc.msg, err, out)
		}
		if _, err := os.Stat(unsaved); err == nil || dirImage(t, tc.dir) != before {
			t.Errorf("%s: the refused run wrote something", tc.name)
		}
	}
}

// TestSingleRunRefusesFleetFlags: the other direction — a single run is
// not handed campaign flags it would drop.
func TestSingleRunRefusesFleetFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	for _, tc := range []struct {
		msg  string
		args []string
	}{
		{"-shards shapes a campaign", []string{"-bench", "compress", "-shards", "3"}},
		{"-checkpoint shapes a campaign", []string{"-bench", "compress", "-checkpoint", dir}},
		{"both name the program", []string{"-bench", "compress", "-gen", "3"}},
	} {
		out, err := pmsimCmd(tc.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.msg) {
			t.Errorf("%v: want exit 2 naming %q, got %v\n%s", tc.args, tc.msg, err, out)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("the refused run created its -checkpoint directory")
	}
}

// TestGenScale: -gen N -scale s terminates for a scale below one driver
// iteration (MainIters never 0, which wraps the countdown), and both modes
// build the same program for it.
func TestGenScale(t *testing.T) {
	retired := regexp.MustCompile(`(\d+) instructions retired`)
	var counts []string
	for _, mode := range [][]string{nil, {"-fleet", "1", "-shards", "1"}} {
		out, err := pmsimCmd(append([]string{"-gen", "3", "-scale", "100"}, mode...)...).CombinedOutput()
		m := retired.FindSubmatch(out)
		if err != nil || m == nil {
			t.Fatalf("pmsim -gen 3 -scale 100 %v: %v\n%s", mode, err, out)
		}
		counts = append(counts, string(m[1]))
	}
	if counts[0] != counts[1] {
		t.Fatalf("single run retired %s instructions, one fleet shard %s: the modes built different programs", counts[0], counts[1])
	}
}

// TestModesSampleAlike: the sampling flags mean the same thing in both
// modes. A -paired fleet produces paired shards at W = -window, and a
// single unpaired run saves W = 0 like a fleet's, so the files can meet
// at one collector.
func TestModesSampleAlike(t *testing.T) {
	tmp := t.TempDir()
	load := func(args ...string) *profile.DB {
		t.Helper()
		path := filepath.Join(tmp, "p.db")
		if out, err := pmsimCmd(append(args, "-bench", "compress", "-scale", "20000", "-interval", "64", "-save", path)...).CombinedOutput(); err != nil {
			t.Fatalf("pmsim %v: %v\n%s", args, err, out)
		}
		db, err := profile.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	if db := load("-fleet", "1", "-shards", "1", "-paired", "-window", "40"); db.W != 40 || db.Pairs() == 0 {
		t.Errorf("-fleet -paired -window 40 saved W=%d with %d pairs", db.W, db.Pairs())
	}
	if single, fleet := load(), load("-fleet", "1", "-shards", "1"); single.W != 0 || fleet.W != 0 {
		t.Errorf("unpaired runs saved W=%d (single) and W=%d (fleet), want 0 and 0", single.W, fleet.W)
	}
	if a, b := load("-seed", "1"), load("-seed", "7"); a.Samples() == 0 || reflect.DeepEqual(a.PCs(), b.PCs()) && a.Samples() == b.Samples() {
		t.Errorf("-seed 7 sampled exactly like -seed 1 (%d samples): the single run dropped the flag", a.Samples())
	}
}
