package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// sections splits a report into the names each list holds, with the note
// the report hung on each ("" when the entry is a problem).
func sections(report string) (unreachable, unused, unset map[string]string) {
	unreachable, unused, unset = map[string]string{}, map[string]string{}, map[string]string{}
	var into map[string]string
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, "unreachable"):
			into = unreachable
		case strings.HasPrefix(line, "exported,"):
			into = unused
		case strings.HasPrefix(line, "options"):
			into = unset
		case strings.HasPrefix(line, "per package"):
			into = nil
		case into != nil && strings.HasPrefix(line, "  "):
			f := strings.Fields(line)
			into[f[1]] = strings.Join(f[2:], " ")
		}
	}
	return unreachable, unused, unset
}

// unpack writes the `-- path --` sections of a testdata archive under dir.
func unpack(t *testing.T, archive, dir string) {
	t.Helper()
	data, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	_, files, _ := strings.Cut(string(data), "\n-- ")
	for _, file := range strings.Split(files, "\n-- ") {
		name, body, _ := strings.Cut(file, " --\n")
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSurfaceFixture runs the pass over testdata/surface.txt, a module with
// one declaration per case the pass must tell apart, and holds each to
// its list: dead code and test-only code in both; a method only an
// interface calls (fmt.Stringer, and one the binary declares itself), a
// type only held and a name only the nested module uses in neither; an
// allowlisted entry listed but no problem; a stale allowlist line a
// problem. Of an option struct's fields, the one only a test sets and the
// one only the type's own normalize sets are unset options; the one a
// binary sets and the one only the nested module sets are not. An
// external test that calls an export_test.go hook and hands its value to
// a unit importing lib type-checks as go test builds it. Offline, and
// quick enough to run on every change.
func TestSurfaceFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	dir := t.TempDir()
	unpack(t, filepath.Join("testdata", "surface.txt"), dir)
	start := time.Now()
	s, err := loadSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("the pass took %v on a six-declaration module", took)
	}
	allow, err := readAllow(filepath.Join(dir, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	counts, problems := s.report(&out, allow)
	unreachable, unused, unset := sections(out.String())

	keys := func(m map[string]string) string {
		var ks []string
		for k := range m {
			ks = append(ks, strings.TrimPrefix(k, "internal/lib."))
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	if got, want := keys(unreachable), "Dead OnlyTested Parked Report.Unasked"; got != want {
		t.Errorf("unreachable list = %q, want %q\n%s", got, want, out.String())
	}
	if got, want := keys(unused), "Dead OnlyTested Parked Report.Unasked"; got != want {
		t.Errorf("no-outside-use list = %q, want %q\n%s", got, want, out.String())
	}
	if got, want := keys(unset), "Config.Defaulted Config.Tested"; got != want {
		t.Errorf("unset-option list = %q, want %q\n%s", got, want, out.String())
	}
	if note := unreachable["internal/lib.Parked"]; !strings.Contains(note, "allowlisted: kept on purpose") {
		t.Errorf("the allowlisted entry carries %q, want its reason", note)
	}
	if got := counts["internal/lib"]; got != (pkgCount{exported: 13, unused: 4}) {
		t.Errorf("internal/lib counts %+v, want 13 exported, 4 without outside use", got)
	}
	// Two problems each for Dead, OnlyTested and Unasked, one each for the
	// two unset options; none for Parked.
	if len(problems) != 8 || strings.Contains(strings.Join(problems, "\n"), "Parked") {
		t.Errorf("problems = %q", problems)
	}

	// An allowlist line naming something now used, or gone, fails the pass.
	allow["internal/lib.Live"], allow["internal/lib.Gone"] = "stale", "stale"
	_, problems = s.report(io.Discard, allow)
	stale := 0
	for _, p := range problems {
		if strings.Contains(p, "excuses nothing") {
			stale++
		}
	}
	if stale != 2 {
		t.Errorf("%d stale-allowlist problems, want one for a used name and one for a missing one: %q", stale, problems)
	}
}

// TestExportSurface pins internal/'s export surface per package — the
// exported top-level names and methods, and how many of them nothing
// outside the package uses — so both only go down: a count above its pin
// fails, and so does one below it until the pin is lowered to match. It
// also fails on anything `doccheck -surface` would: an unreachable or
// outside-unused declaration that is neither deleted, unexported nor on
// cmd/doccheck/surface_allow.txt, or a line there that excuses nothing.
func TestExportSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	pins := map[string]pkgCount{
		"internal/api":         {38, 0},
		"internal/asm":         {30, 0},
		"internal/bpred":       {19, 0},
		"internal/cluster":     {16, 0},
		"internal/core":        {75, 3},
		"internal/counters":    {14, 0},
		"internal/cpu":         {34, 1},
		"internal/difftest":    {5, 5},
		"internal/experiments": {6, 0},
		"internal/faultinject": {10, 0},
		"internal/frame":       {27, 0},
		"internal/ingest":      {44, 0},
		"internal/isa":         {75, 0},
		"internal/mem":         {15, 0},
		"internal/netchaos":    {14, 0},
		"internal/pathprof":    {24, 0},
		"internal/pgo":         {5, 0},
		"internal/profile":     {89, 16},
		"internal/runner":      {20, 0},
		"internal/server":      {4, 0},
		"internal/sim":         {22, 0},
		"internal/stats":       {31, 0},
		"internal/traffic":     {25, 0},
		"internal/wal":         {19, 0},
		"internal/workload":    {20, 0},
	}
	root := filepath.Join("..", "..")
	s, err := loadSurface(root)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(filepath.Join(root, "cmd", "doccheck", "surface_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	counts, problems := s.report(io.Discard, allow)
	for _, p := range problems {
		t.Error(p)
	}
	for pkg, got := range counts {
		switch pin, ok := pins[pkg]; {
		case !ok:
			t.Errorf("%s is not pinned: add {%d, %d}", pkg, got.exported, got.unused)
		case got.exported > pin.exported || got.unused > pin.unused:
			t.Errorf("%s grew to %d exported (%d without outside use), pinned at %d (%d): unexport or delete, the pin only goes down",
				pkg, got.exported, got.unused, pin.exported, pin.unused)
		case got != pin:
			t.Errorf("%s shrank to %d exported (%d without outside use): lower its pin from {%d, %d}",
				pkg, got.exported, got.unused, pin.exported, pin.unused)
		}
	}
	for pkg := range pins {
		if _, ok := counts[pkg]; !ok {
			t.Errorf("%s is pinned and gone: drop its pin", pkg)
		}
	}
}
