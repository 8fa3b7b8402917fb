package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins figures' exit statuses: 0 for an experiment whose shape
// check holds, 2 with the usage text — which lists every experiment — for
// anything it cannot run.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		out    string // substring of stdout
	}{
		{"one experiment", []string{"-quick", "fig2"}, 0, "shape check: ok"},
		{"csv", []string{"-quick", "-csv", "blindspot"}, 0, "profiler,samples,"},
		{"unknown experiment", []string{"fig9"}, 2, ""},
		{"no experiment", nil, 2, ""},
		{"two experiments", []string{"fig2", "fig3"}, 2, ""},
		{"unknown flag", []string{"-fast", "fig2"}, 2, ""},
		{"help", []string{"-h"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, got, tc.status, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.out) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.name, tc.out, stdout.String())
		}
		if tc.status == 2 {
			if stdout.Len() > 0 {
				t.Errorf("%s: a refused run printed:\n%s", tc.name, stdout.String())
			}
			for _, want := range []string{"usage: figures", "multiproc", "all"} {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("%s: usage lacks %q: %s", tc.name, want, stderr.String())
				}
			}
		}
	}
}
