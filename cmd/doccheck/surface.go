package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// The surface pass (doccheck -surface) asks the type checker two things
// about the packages under internal/: which declarations can no binary
// execute, and which exported names does nothing outside their own
// package use. It loads the root module and every module nested in it
// (bench/ — frozen by BENCHMARK.json, so whatever it names is live) from
// source, tests included, offline.
//
// A declaration is reachable when a main function gets to it through
// identifier references, or when its package is one no binary imports
// (difftest, pgo: live as a whole). A method is also reachable, and
// counts as used, when its receiver type is reachable and the method
// belongs to an interface, declared or imported by the program, that the
// type satisfies: String, Less and ServeHTTP are called through the
// interface. An exported type is used outside its package when
// another package holds a value of it, whether or not it spells the name.
//
// It asks one more thing of the options: every exported field of an
// exported *Config or *Options struct must be written by non-test code
// other than the type's own methods (its normalize filling a default is
// not a caller) — through a keyed literal, an assignment or a
// multi-assignment. A nested module's code counts as a caller.

// A unit is one directory of Go files, parsed once. The ways the go tool
// compiles it — alone, with its in-package tests, its external tests —
// are type-checked from the same syntax trees, so a declaration has one
// token.Pos however it was reached, and that Pos is its identity.
type unit struct {
	path                 string
	files, tests, xtests []*ast.File
	pkg                  *types.Package // checked without tests: what importers see
	frozen               bool           // of a nested module: a caller this repository may not edit
}

// A decl is one declaration of a loaded unit as the two lists see it.
type decl struct {
	pos      token.Pos
	unit     *unit
	name     string // Name or Type.Method
	exported bool
	recv     token.Pos // a method's receiver type, or the interface declaring it
	viaIface bool      // callable through an interface in use
	ifaceDef bool      // declared inside an interface type
}

// surface is the loader while it runs and the pass's result after.
type surface struct {
	fset  *token.FileSet
	root  string // root module directory; the report names files relative to it
	mod   string // root module path
	units map[string]*unit
	std   types.Importer
	errs  []string

	decls     []*decl // every unit's non-test declarations, in source order
	byPos     map[token.Pos]*decl
	outside   map[token.Pos]bool        // declaration → used from another unit
	edges     map[token.Pos][]token.Pos // declaration → what its source names
	roots     []token.Pos               // main, init, `var _ =`, and all of a frozen unit
	ifaces    map[*types.Interface]bool // interfaces in use
	reachable map[token.Pos]bool
	written   map[token.Pos][]token.Pos // field → the receiver type of each non-test write (NoPos outside a method)
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// discover parses every package directory of the module rooted at dir,
// and of the modules nested in it as frozen callers.
func (s *surface) discover(dir string, frozen bool) error {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	m := moduleLine.FindSubmatch(gomod)
	if m == nil {
		return fmt.Errorf("%s/go.mod: no module line", dir)
	}
	mod := string(m[1])
	if !frozen {
		s.root, s.mod = dir, mod
	}
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			if name := d.Name(); name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				if err := s.discover(p, true); err != nil {
					return err
				}
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		u := &unit{path: strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."), frozen: frozen}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &u.files}, {bp.TestGoFiles, &u.tests}, {bp.XTestGoFiles, &u.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(s.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		s.units[u.path] = u
		return nil
	})
}

// Import makes the pass the importer of everything it checks: a package
// of a loaded module comes from its unit (the module builds, so there is
// no cycle to guard against), anything else from the standard library's
// source.
func (s *surface) Import(path string) (*types.Package, error) {
	u := s.units[path]
	if u == nil {
		return s.std.Import(path)
	}
	if u.pkg == nil {
		u.pkg = s.check(u, s, u.path, u.files, u.files, true)
	}
	return u.pkg, nil
}

// testImporter resolves a unit's external tests the way go test builds
// them: the unit is its package with its in-package test files, so an
// export_test.go hook is in scope, and each unit that imports it,
// directly or not, is checked again against that package.
type testImporter struct {
	s    *surface
	unit string
	pkgs map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	p, err := ti.s.Import(path)
	if err == nil && ti.dependsOn(p, map[string]bool{}) {
		conf := types.Config{Importer: ti, Error: func(err error) { ti.s.errs = append(ti.s.errs, err.Error()) }}
		p, _ = conf.Check(path, ti.s.fset, ti.s.units[path].files, nil)
	}
	ti.pkgs[path] = p
	return p, err
}

// dependsOn reports whether p, a unit, imports the tested unit.
func (ti *testImporter) dependsOn(p *types.Package, seen map[string]bool) bool {
	for _, q := range p.Imports() {
		if path := q.Path(); path == ti.unit || (ti.s.units[path] != nil && !seen[path] && ti.dependsOn(q, seen)) {
			return true
		}
		seen[q.Path()] = true
	}
	return false
}

// check type-checks files as package path, importing through imp, and
// records what the files in record name. The check of a unit's non-test
// files also declares: it adds the unit's decls, their edges and its
// roots.
func (s *surface) check(u *unit, imp types.Importer, path string, files, record []*ast.File, declares bool) *types.Package {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp, Error: func(err error) { s.errs = append(s.errs, err.Error()) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			s.ifaces[it] = true
		}
	}
	for _, f := range record {
		for _, d := range f.Decls {
			// A function is one separately reachable piece; so is each
			// type spec and each value spec (whose names share it).
			pieces := []ast.Node{d}
			if gd, ok := d.(*ast.GenDecl); ok {
				pieces = pieces[:0]
				for _, spec := range gd.Specs {
					pieces = append(pieces, spec)
				}
			}
			for _, piece := range pieces {
				var named []token.Pos
				ast.Inspect(piece, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					if obj := info.Uses[id]; id != nil && obj != nil && obj.Pkg() != nil {
						if obj.Pkg() != pkg {
							s.holds(obj.Type(), u.path)
						}
						if pos, from := s.tracked(obj); pos.IsValid() {
							named = append(named, pos)
							if from != u.path {
								s.outside[pos] = true
							}
						}
					}
					return true
				})
				if declares {
					s.declare(u, info, piece, named)
					s.recordWrites(info, piece)
				}
			}
		}
	}
	return pkg
}

// recordWrites notes each field piece writes through a keyed literal or
// an assignment's left-hand side, with the receiver type of the method
// piece is (NoPos when it is no method).
func (s *surface) recordWrites(info *types.Info, piece ast.Node) {
	recv := token.NoPos
	if fd, ok := piece.(*ast.FuncDecl); ok && fd.Recv != nil {
		t := info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		recv = types.Unalias(t).(*types.Named).Obj().Pos()
	}
	write := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			s.written[v.Pos()] = append(s.written[v.Pos()], recv)
		}
	}
	ast.Inspect(piece, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					write(sel.Sel)
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				write(id)
			}
		}
		return true
	})
}

// tracked maps a used object onto the declaration the pass follows — a
// package-level name or a method of a loaded unit — and the unit that
// declares it. Fields, locals and the standard library are not followed.
func (s *surface) tracked(obj types.Object) (token.Pos, string) {
	if obj.Pkg() == nil { // error
		return token.NoPos, ""
	}
	from := strings.TrimSuffix(obj.Pkg().Path(), "_test")
	fn, isFunc := obj.(*types.Func)
	if v, ok := obj.(*types.Var); s.units[from] == nil || (ok && v.IsField()) || (!isFunc && obj.Parent() != obj.Pkg().Scope()) {
		return token.NoPos, ""
	}
	if isFunc {
		return fn.Origin().Pos(), from // methods too, an interface's own included
	}
	return obj.Pos(), from
}

// holds marks the named types a foreign object hands its user — a
// function's parameters and results, a field's or variable's type — as
// used from that unit: a caller that holds a value of a type uses the
// type though it never spells its name.
func (s *surface) holds(t types.Type, user string) {
	switch t := t.(type) {
	case *types.Named:
		if pos, from := s.tracked(t.Obj()); pos.IsValid() && from != user {
			s.outside[pos] = true
		}
	case *types.Map:
		s.holds(t.Key(), user)
		s.holds(t.Elem(), user)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		s.holds(t.Elem(), user)
	case *types.Signature:
		s.holds(t.Params(), user)
		s.holds(t.Results(), user)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.holds(t.At(i).Type(), user)
		}
	}
}

// declare records one piece of u's non-test source: the decls it defines,
// the edges from them to what the piece names, and whether it is a root.
func (s *surface) declare(u *unit, info *types.Info, piece ast.Node, named []token.Pos) {
	var names []*ast.Ident
	switch n := piece.(type) {
	case *ast.FuncDecl:
		names = []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		names = []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		names = n.Names
	}
	add := func(obj types.Object, name string, exported bool) *decl {
		d := &decl{pos: obj.Pos(), unit: u, name: name, exported: exported}
		s.decls, s.byPos[d.pos] = append(s.decls, d), d
		return d
	}
	for _, id := range names {
		obj := info.Defs[id]
		recv := (*types.Var)(nil)
		if fn, ok := obj.(*types.Func); ok {
			recv = fn.Type().(*types.Signature).Recv()
		}
		if id.Name == "_" || (id.Name == "init" && recv == nil) { // they run without being named
			s.roots = append(s.roots, named...)
			continue
		}
		s.edges[id.Pos()] = named
		d := add(obj, id.Name, id.IsExported())
		switch obj := obj.(type) {
		case *types.Func:
			if recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				tn := types.Unalias(t).(*types.Named).Obj()
				d.recv, d.name, d.exported = tn.Pos(), tn.Name()+"."+id.Name, d.exported && tn.Exported()
			} else if id.Name == "main" && obj.Pkg().Name() == "main" {
				s.roots = append(s.roots, d.pos)
			}
		case *types.TypeName:
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && !obj.IsAlias() {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					m := it.ExplicitMethod(i)
					md := add(m, id.Name+"."+m.Name(), id.IsExported() && m.Exported())
					md.recv, md.ifaceDef = d.pos, true
				}
			}
		}
		if u.frozen {
			s.roots = append(s.roots, d.pos)
		}
	}
}

// loadSurface runs the pass over the module rooted at root.
func loadSurface(root string) (*surface, error) {
	build.Default.CgoEnabled = false // the source importer must not run cgo
	s := &surface{
		fset: token.NewFileSet(), units: map[string]*unit{}, byPos: map[token.Pos]*decl{},
		ifaces: map[*types.Interface]bool{}, outside: map[token.Pos]bool{}, edges: map[token.Pos][]token.Pos{}, reachable: map[token.Pos]bool{},
		written: map[token.Pos][]token.Pos{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.discover(root, false); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.units))
	for p := range s.units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		u := s.units[p]
		if _, err := s.Import(p); err != nil {
			return nil, err
		}
		var imp types.Importer = s
		if len(u.tests) > 0 {
			tested := s.check(u, s, u.path, append(append([]*ast.File{}, u.files...), u.tests...), u.tests, false)
			imp = &testImporter{s: s, unit: u.path, pkgs: map[string]*types.Package{u.path: tested}}
		}
		if len(u.xtests) > 0 {
			s.check(u, imp, u.path+"_test", u.xtests, u.xtests, false)
		}
	}

	// Interfaces in use: the ones the units spell (collected while
	// checking, anonymous ones included), error, and every named one of the
	// units and of the packages they import. A unit no binary links is test
	// equipment: all of it is a root.
	s.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	seen, linked := map[*types.Package]bool{}, map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if !linked[p] && s.units[p.Path()] != nil {
			linked[p] = true
			for _, imp := range p.Imports() {
				link(imp)
			}
		}
	}
	for _, p := range paths {
		pkg := s.units[p].pkg
		if pkg.Name() == "main" {
			link(pkg)
		}
		for _, imp := range append(pkg.Imports(), pkg) {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && !seen[imp] {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						s.ifaces[it] = true
					}
				}
			}
			seen[imp] = true
		}
	}
	for _, d := range s.decls {
		if !linked[d.unit.pkg] && !d.ifaceDef {
			s.roots = append(s.roots, d.pos)
		}
	}

	// Which methods an interface in use can call (a promoted one lands on
	// the embedded type that declares it).
	methodsOf := map[token.Pos][]*decl{}
	for _, d := range s.decls {
		if d.recv.IsValid() {
			if !d.ifaceDef {
				methodsOf[d.recv] = append(methodsOf[d.recv], d)
			}
			continue
		}
		named, ok := d.unit.pkg.Scope().Lookup(d.name).(*types.TypeName)
		if !ok || named.IsAlias() {
			continue
		}
		if n, ok := named.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named.Type())
		mset := types.NewMethodSet(ptr)
		for it := range s.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil && s.byPos[sel.Obj().Pos()] != nil {
					s.byPos[sel.Obj().Pos()].viaIface = true
				}
			}
		}
	}

	// Reachability: a worklist over the edges; reaching a type reaches the
	// methods interfaces can call on it, and an interface's own methods
	// live and die with the interface.
	for work := s.roots; len(work) > 0; {
		pos := work[len(work)-1]
		work = work[:len(work)-1]
		if s.reachable[pos] {
			continue
		}
		s.reachable[pos] = true
		work = append(work, s.edges[pos]...)
		for _, m := range methodsOf[pos] {
			if m.viaIface {
				work = append(work, m.pos)
			}
		}
	}
	for _, d := range s.decls {
		if d.ifaceDef {
			s.reachable[d.pos] = s.reachable[d.recv]
		}
	}
	return s, nil
}

// readAllow parses the allowlist: `key[,key…] reason` lines, # comments.
// A key names a declaration (internal/pkg.Name, internal/pkg.Type.Method),
// a type with its methods (internal/pkg.Type), a file or a package.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		keys, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, keys)
		}
		for _, key := range strings.Split(keys, ",") {
			allow[key] = strings.TrimSpace(reason)
		}
	}
	return allow, nil
}

// pkgCount is one package's pinned pair: exported top-level names and
// methods, and how many of them nothing outside the package uses.
type pkgCount struct{ exported, unused int }

// report prints the two lists for the packages under internal/ to w and
// returns the per-package counts with the problems that fail the pass: a
// type error, an unreachable declaration or an exported name without
// outside use that is neither allowlisted nor an interface's own method
// (implemented elsewhere, so it cannot be unexported), and an allowlist
// line that no longer excuses anything.
func (s *surface) report(w io.Writer, allow map[string]string) (counts map[string]pkgCount, problems []string) {
	problems = append(problems, s.errs...)
	excused := map[string]bool{}
	pkgOf := func(d *decl) string {
		rel, _ := strings.CutPrefix(d.unit.path, s.mod+"/")
		return rel
	}
	line := func(d *decl, fix string) {
		pkg, note := pkgOf(d), ""
		typ, _, _ := strings.Cut(d.name, ".")
		at := s.fset.Position(d.pos)
		rel, _ := filepath.Rel(s.root, at.Filename)
		at.Filename, at.Column = filepath.ToSlash(rel), 0
		for _, k := range []string{pkg + "." + d.name, pkg + "." + typ, at.Filename, pkg} {
			if reason, ok := allow[k]; ok && note == "" {
				excused[k] = true
				note = "  (allowlisted: " + reason + ")"
			}
		}
		if note == "" && d.ifaceDef && s.outside[d.recv] {
			note = "  (an interface's own method: implemented elsewhere)"
		}
		fmt.Fprintf(w, "  %s  %s.%s%s\n", at, pkg, d.name, note)
		if note == "" {
			problems = append(problems, fmt.Sprintf("%s: %s.%s %s", at, pkg, d.name, fix))
		}
	}
	var internal []*decl
	for _, d := range s.decls {
		if strings.HasPrefix(pkgOf(d), "internal/") {
			internal = append(internal, d)
		}
	}

	dead := 0
	fmt.Fprintln(w, "unreachable from any main:")
	for _, d := range internal {
		if !s.reachable[d.pos] {
			dead++
			line(d, "is unreachable from any main: delete it or allowlist it")
		}
	}
	counts = map[string]pkgCount{}
	var total pkgCount
	fmt.Fprintln(w, "exported, no use outside their package:")
	for _, d := range internal {
		if !d.exported {
			continue
		}
		c := counts[pkgOf(d)]
		c.exported++
		total.exported++
		if !s.outside[d.pos] && !d.viaIface {
			c.unused++
			total.unused++
			line(d, "is exported and nothing outside its package uses it: unexport, delete or allowlist it")
		}
		counts[pkgOf(d)] = c
	}
	options, unset := 0, 0
	fmt.Fprintln(w, "options no caller sets (a test or the type's own method is no caller):")
	for _, d := range internal {
		for _, f := range s.optionFields(d) {
			options++
			if !slices.ContainsFunc(s.written[f.Pos()], func(recv token.Pos) bool { return recv != d.pos }) {
				unset++
				line(&decl{pos: f.Pos(), unit: d.unit, name: d.name + "." + f.Name()},
					"is an option no caller sets: delete it, unexport it or allowlist it")
			}
		}
	}
	for k := range allow {
		if !excused[k] {
			problems = append(problems, fmt.Sprintf("allowlist: %s excuses nothing (now used, or gone): drop the line", k))
		}
	}
	sort.Strings(problems)

	fmt.Fprintf(w, "surface: %d exported names and methods under internal/, %d with no use outside their package, %d unreachable declarations, %d exported option fields, %d that no caller sets\n",
		total.exported, total.unused, dead, options, unset)
	return counts, problems
}

// optionFields returns the exported fields of d when d declares an
// exported struct type named *Config or *Options.
func (s *surface) optionFields(d *decl) []*types.Var {
	if !d.exported || !(strings.HasSuffix(d.name, "Config") || strings.HasSuffix(d.name, "Options")) {
		return nil
	}
	tn, ok := d.unit.pkg.Scope().Lookup(d.name).(*types.TypeName) // a method's Type.Name finds nothing
	if !ok {
		return nil
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	var fields []*types.Var
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			fields = append(fields, st.Field(i))
		}
	}
	return fields
}

// surfaceProblems is `doccheck -surface`, run from the repository root:
// the two lists on stdout, what fails the pass returned.
func surfaceProblems() []string {
	s, err := loadSurface(".")
	var allow map[string]string
	if err == nil {
		allow, err = readAllow(filepath.Join("cmd", "doccheck", "surface_allow.txt"))
	}
	if err != nil {
		return []string{err.Error()}
	}
	_, problems := s.report(os.Stdout, allow)
	return problems
}
