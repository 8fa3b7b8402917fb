package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// currentDocs are the current-state documents whose backticked names must
// resolve.
var currentDocs = []string{"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md"}

// eachSpan calls visit with every backticked span of the current-state
// documents, its file and its 1-based line.
func eachSpan(t *testing.T, visit func(file string, line int, span string)) {
	t.Helper()
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, f := range currentDocs {
		data, err := os.ReadFile("../../" + f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				visit(f, i+1, m[1])
			}
		}
	}
}

// TestDocPathsResolve keeps deleted files out of the current-state docs:
// every backticked repository path (first segment cmd/, internal/,
// examples/ or bench/) and every bare root *.json / *.md name must exist.
// A path whose last element is pkg.Ident resolves when pkg does
// (`internal/experiments.All`).
func TestDocPathsResolve(t *testing.T) {
	repoPath := regexp.MustCompile(`^(?:\./)?((?:cmd|internal|examples|bench)/\S*)$`)
	rootName := regexp.MustCompile(`^[\w-]+\.(?:json|md)$`)
	exists := func(p string) bool {
		_, err := os.Stat("../../" + p)
		return err == nil
	}
	eachSpan(t, func(f string, line int, span string) {
		if rootName.MatchString(span) && !exists(span) {
			t.Errorf("%s:%d: `%s` does not exist", f, line, span)
		}
		for _, field := range strings.Fields(span) {
			pm := repoPath.FindStringSubmatch(field)
			if pm == nil || exists(pm[1]) {
				continue
			}
			dir, base := path.Split(pm[1])
			if pkg, _, ok := strings.Cut(base, "."); !ok || !exists(dir+pkg) {
				t.Errorf("%s:%d: `%s` names %s, which does not exist", f, line, span, pm[1])
			}
		}
	})
}

// TestDocGoNamesResolve keeps deleted declarations out of the same docs:
// a backticked `pkg.Name` or `pkg.Name.Member`, optionally called, where
// pkg is a directory under internal/ or cmd/ and Name starts upper-case,
// must name a top-level declaration of that package, and Member a field
// or method of it (promoted through an embedded field of the same
// package). Lower-case `pkg.x` spans are metric and JSON key names.
func TestDocGoNamesResolve(t *testing.T) {
	goName := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?(?:\(.*\))?$`)
	decls := map[string]*pkgDecls{}
	for _, parent := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(filepath.Join("..", "..", parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if d.IsDir() {
				decls[d.Name()] = parseDecls(t, filepath.Join("..", "..", parent, d.Name()))
			}
		}
	}
	eachSpan(t, func(f string, line int, span string) {
		m := goName.FindStringSubmatch(span)
		if m == nil || decls[m[1]] == nil {
			return
		}
		p := decls[m[1]]
		switch {
		case !p.top[m[2]]:
			t.Errorf("%s:%d: `%s`: package %s declares no %s", f, line, span, m[1], m[2])
		case m[3] != "" && !p.hasMember(m[2], m[3], 0):
			t.Errorf("%s:%d: `%s`: %s.%s has no field or method %s", f, line, span, m[1], m[2], m[3])
		}
	})
}

// pkgDecls is one package's declarations, tests included: its top-level
// names, and per type its fields and methods and the same-package types
// it embeds.
type pkgDecls struct {
	top      map[string]bool
	members  map[string]map[string]bool
	embedded map[string][]string
}

func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	p := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]string{}}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.top[d.Name.Name] = true
					continue
				}
				typ := d.Recv.List[0].Type
				if s, ok := typ.(*ast.StarExpr); ok {
					typ = s.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.top[n.Name] = true
						}
					case *ast.TypeSpec:
						p.top[s.Name.Name] = true
						var fields *ast.FieldList
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(s.Name.Name, n.Name)
							}
							if len(fl.Names) > 0 {
								continue
							}
							typ := fl.Type
							if st, ok := typ.(*ast.StarExpr); ok {
								typ = st.X
							}
							switch e := typ.(type) {
							case *ast.Ident:
								member(s.Name.Name, e.Name)
								p.embedded[s.Name.Name] = append(p.embedded[s.Name.Name], e.Name)
							case *ast.SelectorExpr:
								member(s.Name.Name, e.Sel.Name)
							}
						}
					}
				}
			}
		}
	}
	return p
}

// hasMember reports whether typ has a field or method name, directly or
// through an embedded type of the same package.
func (p *pkgDecls) hasMember(typ, name string, depth int) bool {
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embedded[typ] {
		if depth < 8 && p.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}
