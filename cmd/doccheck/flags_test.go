package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagTables holds OPERATIONS.md's two flag tables to the binaries:
// every flag `pmsimd -h` / `pmrouter -h` prints has a row, every row names
// a flag that exists, and the defaults agree. The runbook spells some
// defaults for people (`8 MiB`, `off`, `0 (= 10s)`); normalize maps both
// sides onto what the flag package prints, where a zero default is absent.
func TestFlagTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons")
	}
	ops, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	helpFlag := regexp.MustCompile(`(?m)^  -(\S+).*\n    \t.*?(?: \(default (.*)\))?$`)
	tableRow := regexp.MustCompile("(?m)^\\| `-([^`]+)` \\| ([^|]*) \\|")
	normalize := func(s string) string {
		s = strings.Trim(s, "`\" ")
		if n, ok := strings.CutSuffix(s, " MiB"); ok {
			mib, _ := strconv.Atoi(n)
			return strconv.Itoa(mib << 20)
		}
		s, _, _ = strings.Cut(s, " (") // `0 (= 10s)` reads 0
		switch s {
		case "0", "off", "(required)":
			return ""
		}
		return s
	}
	for _, cmd := range []string{"pmsimd", "pmrouter"} {
		bin := filepath.Join(t.TempDir(), cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "profileme/cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
		help, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, help)
		}
		built := map[string]string{}
		for _, m := range helpFlag.FindAllStringSubmatch(string(help), -1) {
			built[m[1]] = normalize(m[2])
		}
		_, section, _ := strings.Cut(string(ops), "\n## "+cmd+" ")
		_, section, _ = strings.Cut(section, "\n### Flags\n")
		section, _, _ = strings.Cut(section, "\n#")
		rows := tableRow.FindAllStringSubmatch(section, -1)
		if len(built) == 0 || len(rows) == 0 {
			t.Fatalf("%s: %d flags in -h, %d rows in OPERATIONS.md", cmd, len(built), len(rows))
		}
		for _, row := range rows {
			name, doc := row[1], normalize(row[2])
			got, ok := built[name]
			delete(built, name)
			if !ok {
				t.Errorf("OPERATIONS.md lists %s -%s, which the binary does not have", cmd, name)
			} else if got != doc {
				t.Errorf("%s -%s defaults to %q, OPERATIONS.md says %q", cmd, name, got, row[2])
			}
		}
		for name := range built {
			t.Errorf("%s -%s has no row in OPERATIONS.md", cmd, name)
		}
	}
}

// TestDaemonImportClosure holds the collector daemons to what they are
// for: the router places opaque bytes and the instance admits, logs and
// merges profiles, so neither links the simulator or the traffic tooling.
// The import graph enforces it: pmrouter reaches internal/cluster and
// nothing else of this module; pmsimd reaches exactly the eight packages
// under the ingest path.
func TestDaemonImportClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	const internal = "profileme/internal/"
	want := map[string][]string{
		"pmrouter": {"cluster"},
		"pmsimd":   {"core", "frame", "ingest", "isa", "profile", "server", "stats", "wal"},
	}
	for cmd, allowed := range want {
		out, err := exec.Command("go", "list", "-deps", "profileme/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", cmd, err, out)
		}
		var got []string
		for _, pkg := range strings.Fields(string(out)) {
			if name, ok := strings.CutPrefix(pkg, internal); ok {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(allowed, " ") {
			t.Errorf("%s links internal packages %v, want exactly %v", cmd, got, allowed)
		}
	}
}

// TestNoGob keeps encoding/gob out of the module, tests included: PMDB
// and PMCK each have one row-table format and one reader (DESIGN.md §7),
// and an image of any other version is refused as version skew, not
// decoded by a second reader.
func TestNoGob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	out, err := exec.Command("go", "list", "-deps", "-test", "profileme/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps -test: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "encoding/gob" {
			t.Fatal("the module links encoding/gob")
		}
	}
}
