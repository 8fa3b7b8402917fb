package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRouteTables holds OPERATIONS.md's two endpoint tables to the route
// tables they describe: pmsimd's lists exactly the paths server.Handler
// registers, pmrouter's exactly those Router.Handler registers. The
// paths are the HandleFunc("...") literals, read from the source.
func TestRouteTables(t *testing.T) {
	ops, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(?:GET|POST) (/[^`?]*)[^`]*` \\|")
	for _, c := range []struct{ daemon, file, recv string }{
		{"pmsimd", "../../internal/server/server.go", "Server"},
		{"pmrouter", "../../internal/cluster/router.go", "Router"},
	} {
		code := handlerRoutes(t, c.file, c.recv)
		_, section, _ := strings.Cut(string(ops), "\n## "+c.daemon+" ")
		_, section, _ = strings.Cut(section, "\n### Endpoints\n")
		section, _, _ = strings.Cut(section, "\n#")
		var doc []string
		for _, m := range row.FindAllStringSubmatch(section, -1) {
			doc = append(doc, m[1])
		}
		sort.Strings(doc)
		if len(code) == 0 || strings.Join(doc, " ") != strings.Join(code, " ") {
			t.Errorf("OPERATIONS.md's %s endpoint table lists\n  %v\n%s.Handler registers\n  %v", c.daemon, doc, c.recv, code)
		}
	}
}

// handlerRoutes returns the sorted path literals (*recv).Handler in file
// passes to HandleFunc.
func handlerRoutes(t *testing.T, file, recv string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" || fn.Recv == nil {
			continue
		}
		if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); !ok || star.X.(*ast.Ident).Name != recv {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "HandleFunc" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				p, _ := strconv.Unquote(lit.Value)
				paths = append(paths, p)
			}
			return true
		})
	}
	sort.Strings(paths)
	return paths
}
