package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// TestRun drives pmdump over a clean profile, a lossy one, a collector
// checkpoint, a truncated file among good ones and two files without
// -merge. The lossy case pins the report to itself: the last line's total
// is loss-corrected like the rows above it, not delivered samples x
// interval.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, samples int, lost uint64) string {
		db := profile.NewDB(100, 0, 4)
		for i := 0; i < samples; i++ {
			r := core.Record{PC: 0x400 + 8*uint64(i%5), Events: core.EvRetired, LoadComplete: -1}
			for st := range r.StageCycle {
				r.StageCycle[st] = int64(st)
			}
			db.Add(core.Sample{First: r})
		}
		db.RecordLoss(lost)
		path := filepath.Join(dir, name)
		if err := profile.SaveFile(db, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, lossy := save("clean.prof", 300, 0), save("lossy.prof", 300, 100)
	// A collector's checkpoint (PMCK) holding the lossy profile.
	seed, err := profile.LoadFile(lossy)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "agg.db")
	svc, err := ingest.NewService(ingest.Config{CheckpointPath: ckpt}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FinalCheckpoint(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.prof")
	if err := os.WriteFile(torn, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		args       []string
		status     int
		out, errIs []string // substrings of stdout / stderr
	}{
		{"clean", []string{clean}, 0,
			[]string{"profile: 300 samples (0 paired), 0 lost,", "estimated instructions: 30000 "}, nil},
		{"lossy", []string{lossy}, 0,
			[]string{"profile: 300 samples (0 paired), 100 lost,", "estimates loss-corrected", "estimated instructions: 40000 "}, nil},
		{"merged", []string{"-merge", clean, lossy}, 0,
			[]string{"profile: 600 samples (0 paired), 100 lost,", "estimated instructions: 70000 "}, nil},
		{"collector checkpoint", []string{ckpt}, 0,
			[]string{"profile: 300 samples (0 paired), 100 lost,", "estimated instructions: 40000 "}, nil},
		{"checkpoint merged with a profile", []string{"-merge", clean, ckpt}, 0,
			[]string{"profile: 600 samples (0 paired), 100 lost,", "estimated instructions: 70000 "}, nil},
		{"truncated names its file", []string{"-merge", clean, torn, lossy}, 1,
			nil, []string{torn, "truncated data"}},
		{"two files need -merge", []string{clean, lossy}, 2,
			nil, []string{"need -merge"}},
		{"-h prints the flags", []string{"-h"}, 0, nil, []string{"-merge", "-top"}},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, got, tc.status, stderr.String())
		}
		for _, want := range tc.out {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", tc.name, want, stdout.String())
			}
		}
		for _, want := range tc.errIs {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%s: stderr lacks %q: %s", tc.name, want, stderr.String())
			}
		}
		if tc.status != 0 && stdout.Len() > 0 {
			t.Errorf("%s: a failed run printed a report:\n%s", tc.name, stdout.String())
		}
	}
}
