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

// TestFlagTables holds the docs' flags to the binaries. OPERATIONS.md's
// two flag tables match what `pmsimd -h` / `pmrouter -h` print: every
// flag has a row, every row names a flag that exists, and the defaults
// agree. The runbook spells some defaults for people (`8 MiB`, `off`,
// `0 (= 10s)`); normalize maps both sides onto what the flag package
// prints, where a zero default is absent. And every backticked `-name`
// in README.md, DESIGN.md and OPERATIONS.md is a flag that some
// binary's -h prints (each pmtraffic subcommand's), or the go tool's.
// Every -h it runs must exit 0: asking for the usage is not an error.
func TestFlagTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	bins := t.TempDir()
	build := []string{"build", "-o", bins}
	for _, cmd := range []string{"pmsim", "pmsimd", "pmrouter", "pmdump", "pmtraffic", "figures", "doccheck"} {
		build = append(build, "profileme/cmd/"+cmd)
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	help := func(cmd string, args ...string) string {
		// -h asks for the usage: every binary prints its flags and exits 0.
		out, err := exec.Command(filepath.Join(bins, cmd), append(args, "-h")...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "\n  -") {
			t.Fatalf("%s %v -h: %v\n%s", cmd, args, err, out)
		}
		return string(out)
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
		built := map[string]string{}
		for _, m := range helpFlag.FindAllStringSubmatch(help(cmd), -1) {
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

	flags := map[string]bool{"race": true, "update": true} // go test's
	flagLine, backticked := regexp.MustCompile(`(?m)^  -(\S+)`), regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	for _, h := range []string{help("pmsim"), help("pmsimd"), help("pmrouter"), help("pmdump"), help("figures"), help("doccheck"),
		help("pmtraffic", "gen"), help("pmtraffic", "replay"), help("pmtraffic", "describe"), help("pmtraffic", "record")} {
		for _, m := range flagLine.FindAllStringSubmatch(h, -1) {
			flags[m[1]] = true
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "OPERATIONS.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			if !flags[m[1]] {
				t.Errorf("%s names `-%s`, which no binary's -h prints", doc, m[1])
			}
		}
	}
}

// TestDaemonImportClosure holds the collector daemons to what they are
// for: the router places opaque bytes and the instance admits, logs and
// merges profiles, so neither links the simulator or the traffic tooling.
// The import graph enforces it: pmrouter reaches internal/cluster and
// the wire it shares with the instance, internal/api, and nothing else
// of this module; pmsimd reaches exactly the eight packages under the
// ingest path, and internal/api.
func TestDaemonImportClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	const internal = "profileme/internal/"
	want := map[string][]string{
		"pmrouter": {"api", "cluster"},
		"pmsimd":   {"api", "core", "frame", "ingest", "isa", "profile", "server", "stats", "wal"},
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
