package main

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsResolve keeps deleted files out of the current-state docs:
// every backticked repository path (first segment cmd/, internal/,
// examples/ or bench/) and every bare root *.json / *.md name must exist.
// A path whose last element is pkg.Ident resolves when pkg does
// (`internal/experiments.All`).
func TestDocPathsResolve(t *testing.T) {
	span := regexp.MustCompile("`([^`\n]+)`")
	repoPath := regexp.MustCompile(`^(?:\./)?((?:cmd|internal|examples|bench)/\S*)$`)
	rootName := regexp.MustCompile(`^[\w-]+\.(?:json|md)$`)
	exists := func(p string) bool {
		_, err := os.Stat("../../" + p)
		return err == nil
	}
	for _, f := range []string{"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile("../../" + f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				if rootName.MatchString(m[1]) && !exists(m[1]) {
					t.Errorf("%s:%d: `%s` does not exist", f, i+1, m[1])
				}
				for _, field := range strings.Fields(m[1]) {
					pm := repoPath.FindStringSubmatch(field)
					if pm == nil || exists(pm[1]) {
						continue
					}
					dir, base := path.Split(pm[1])
					if pkg, _, ok := strings.Cut(base, "."); !ok || !exists(dir+pkg) {
						t.Errorf("%s:%d: `%s` names %s, which does not exist", f, i+1, m[1], pm[1])
					}
				}
			}
		}
	}
}
