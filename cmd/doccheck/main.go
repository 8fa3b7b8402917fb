// Command doccheck validates the repository's markdown documentation:
// every relative link target exists, every anchor (in-page or
// cross-page) matches a real heading under GitHub's slug rules, and
// every "DESIGN.md §N" cross-reference names a section DESIGN.md
// actually has. External http(s) links are skipped — the repo is
// offline-friendly and CI must not depend on the network.
//
//	doccheck                          # checks README.md DESIGN.md OPERATIONS.md
//	doccheck README.md EXTRA.md       # explicit file list
//	doccheck -surface                 # the export-surface pass (surface.go)
//
// Exit status 0 when clean, 1 with one line per problem otherwise.
// Fenced code blocks are ignored entirely: a `# comment` inside a
// shell example is not a heading and `f(x)` is not a link.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

var (
	// linkRe matches inline links [text](target); images share the shape.
	linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// headRe matches ATX headings outside code fences.
	headRe = regexp.MustCompile(`^(#{1,6})\s+(.+?)\s*$`)
	// sectionRefRe matches prose cross-references like "DESIGN.md §13".
	sectionRefRe = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	// sectionHeadRe matches DESIGN.md's numbered section headings.
	sectionHeadRe = regexp.MustCompile(`^## (\d+)\.`)
)

// doc is one parsed markdown file.
type doc struct {
	anchors  map[string]bool // GitHub heading slugs
	sections map[int]bool    // "## N." section numbers (DESIGN.md style)
	links    []link
	secRefs  []secRef
}

type link struct {
	line   int
	target string
}

type secRef struct {
	line int
	n    int
}

// slugify reproduces GitHub's heading-to-anchor rule: lowercase, drop
// everything but letters/digits/underscore/hyphen, spaces to hyphens.
func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(s)) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// parse reads one markdown file into its anchors, links, and §-refs.
func parse(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &doc{anchors: map[string]bool{}, sections: map[int]bool{}}
	seen := map[string]int{} // duplicate heading slugs get -1, -2, ...
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if m := headRe.FindStringSubmatch(line); m != nil {
			slug := slugify(m[2])
			if n, dup := seen[slug]; dup {
				seen[slug] = n + 1
				slug = fmt.Sprintf("%s-%d", slug, n)
			} else {
				seen[slug] = 1
			}
			d.anchors[slug] = true
			if sm := sectionHeadRe.FindStringSubmatch(line); sm != nil {
				n, _ := strconv.Atoi(sm[1])
				d.sections[n] = true
			}
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			d.links = append(d.links, link{line: i + 1, target: m[1]})
		}
		for _, m := range sectionRefRe.FindAllStringSubmatch(line, -1) {
			n, _ := strconv.Atoi(m[1])
			d.secRefs = append(d.secRefs, secRef{line: i + 1, n: n})
		}
	}
	return d, nil
}

func main() {
	surfacePass := flag.Bool("surface", false, "check internal/'s export surface instead of the markdown")
	flag.Parse() // -h prints the flags and exits 0, a bad flag exits 2
	if *surfacePass {
		exitOn(surfaceProblems())
		return
	}
	files := flag.Args()
	if len(files) == 0 {
		files = []string{"README.md", "DESIGN.md", "OPERATIONS.md"}
	}

	docs := map[string]*doc{}
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	load := func(path string) *doc {
		if d, ok := docs[path]; ok {
			return d
		}
		d, err := parse(path)
		if err != nil {
			d = nil // cache the miss; the caller reports it
		}
		docs[path] = d
		return d
	}

	for _, f := range files {
		if load(f) == nil {
			fail("%s: cannot read", f)
		}
	}

	for _, f := range files {
		d := docs[f]
		if d == nil {
			continue
		}
		for _, l := range d.links {
			target := l.target
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			td := d
			if path != "" {
				rel := filepath.Join(filepath.Dir(f), path)
				info, err := os.Stat(rel)
				if err != nil {
					fail("%s:%d: link target %q does not exist", f, l.line, path)
					continue
				}
				if anchor == "" {
					continue
				}
				if info.IsDir() || !strings.HasSuffix(path, ".md") {
					fail("%s:%d: anchor on non-markdown target %q", f, l.line, target)
					continue
				}
				if td = load(rel); td == nil {
					fail("%s:%d: cannot read link target %q", f, l.line, rel)
					continue
				}
			}
			if anchor != "" && !td.anchors[anchor] {
				fail("%s:%d: anchor #%s not found in %s", f, l.line, anchor, orSelf(path, f))
			}
		}
		design := load("DESIGN.md")
		for _, r := range d.secRefs {
			if design == nil || !design.sections[r.n] {
				fail("%s:%d: reference to DESIGN.md §%d, which has no '## %d.' section", f, r.line, r.n, r.n)
			}
		}
	}

	exitOn(problems)
	fmt.Printf("doccheck: %d file(s) clean\n", len(files))
}

// exitOn prints one line per problem and exits 1 when there is any.
func exitOn(problems []string) {
	if len(problems) == 0 {
		return
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
	os.Exit(1)
}

func orSelf(path, self string) string {
	if path == "" {
		return self
	}
	return path
}
