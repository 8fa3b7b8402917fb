package main

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLogTable holds OPERATIONS.md's log table to the records the code
// writes: every message a non-test file outside bench/ passes to a
// *slog.Logger has a row with the level it is logged at, and every row
// names such a message. Calls are found by type, whatever the logger
// is named, and each must pass a constant message.
func TestLogTable(t *testing.T) {
	ops, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(ops), "\n## Logs\n")
	section, _, _ = strings.Cut(section, "\n## ")
	doc := map[string]string{}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([a-z]+) \\|")
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if _, dup := doc[m[1]]; dup {
			t.Errorf("OPERATIONS.md's log table lists %q twice", m[1])
		}
		doc[m[1]] = m[2]
	}
	code := loggedMessages(t, "../..")
	if len(code) == 0 {
		t.Fatal("found no log call in the code")
	}
	var names []string
	for msg := range code {
		names = append(names, msg)
	}
	sort.Strings(names)
	for _, msg := range names {
		switch level, ok := doc[msg]; {
		case !ok:
			t.Errorf("%s logs %q at %s; OPERATIONS.md's log table has no row for it", code[msg].where, msg, code[msg].level)
		case level != code[msg].level:
			t.Errorf("%s logs %q at %s; OPERATIONS.md's log table says %s", code[msg].where, msg, code[msg].level, level)
		}
	}
	for msg := range doc {
		if _, ok := code[msg]; !ok {
			t.Errorf("OPERATIONS.md's log table lists %q, which no code logs", msg)
		}
	}
}

type logged struct{ level, where string }

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loggedMessages type-checks the non-test Go files of the module at
// root, bench/ aside, and returns the message of every Debug, Info, Warn
// and Error call on a *slog.Logger (the Context forms too) with its level
// and one place it is logged. A call that bypasses the process's logger
// (slog.Info and the other package-level functions) or hides its level
// (Log, LogAttrs) fails the test.
func loggedMessages(t *testing.T, root string) map[string]logged {
	levels := map[string]string{"Debug": "debug", "Info": "info", "Warn": "warn", "Error": "error"}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	mod := string(moduleLine.FindSubmatch(gomod)[1])
	build.Default.CgoEnabled = false // the source importer must not run cgo
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	out := map[string]logged{}
	collect := func(info *types.Info, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				id = fun.Sel
			case *ast.Ident:
				id = fun
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "log/slog" {
				return true
			}
			where := fset.Position(call.Pos()).String()
			name, ctx := strings.CutSuffix(fn.Name(), "Context")
			level := levels[name]
			isMethod := fn.Type().(*types.Signature).Recv() != nil
			switch {
			case name == "Log" || name == "LogAttrs":
				t.Errorf("%s: log through Debug, Info, Warn or Error, so the level is in the call", where)
				return true
			case level == "":
				return true
			case !isMethod:
				t.Errorf("%s: slog.%s logs through slog's default logger; log through the process's *slog.Logger", where, fn.Name())
				return true
			}
			arg := 0
			if ctx {
				arg = 1
			}
			var tv types.TypeAndValue
			if len(call.Args) > arg {
				tv = info.Types[call.Args[arg]]
			}
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				t.Errorf("%s: a log message must be a constant string", where)
				return true
			}
			msg := constant.StringVal(tv.Value)
			if prev, ok := out[msg]; ok && prev.level != level {
				t.Errorf("%s logs %q at %s, %s at %s: one message, one level", where, msg, level, prev.where, prev.level)
			}
			out[msg] = logged{level, where}
			return true
		})
	}
	pkgs := map[string]*types.Package{}
	var load func(dir string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if rel, ok := strings.CutPrefix(path, mod+"/"); ok {
			return load(filepath.Join(root, filepath.FromSlash(rel)))
		}
		return std.Import(path)
	})
	load = func(dir string) (*types.Package, error) {
		if p, ok := pkgs[dir]; ok {
			return p, nil
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		rel, _ := filepath.Rel(root, dir)
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		p, err := (&types.Config{Importer: imp}).Check(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."), fset, files, info)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			collect(info, f)
		}
		pkgs[dir] = p
		return p, nil
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name == "bench" || name == "testdata" || name[0] == '.') {
			return filepath.SkipDir
		}
		if _, err := load(p); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
