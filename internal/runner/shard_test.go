package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestOneShardPath keeps RunShard the only place a shard is made: in the
// non-test files of cmd/pmsim, internal/runner and internal/traffic no
// other function may build a machine source, a pipeline, a ProfileMe unit
// or a profile database, or attach one to the other.
func TestOneShardPath(t *testing.T) {
	parts := map[string]bool{
		"sim.NewMachineSource": true, "cpu.New": true, "cpu.NewWithHierarchy": true,
		"core.NewUnit": true, "profile.NewDB": true,
	}
	fset := token.NewFileSet()
	found := false
	for _, dir := range []string{".", "../traffic", "../../cmd/pmsim"} {
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				for _, decl := range file.Decls {
					fn, _ := decl.(*ast.FuncDecl)
					if dir == "." && fn != nil && fn.Recv == nil && fn.Name.Name == "RunShard" {
						found = true
						continue
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						if x, ok := sel.X.(*ast.Ident); sel.Sel.Name == "AttachProfileMe" || ok && parts[x.Name+"."+sel.Sel.Name] {
							t.Errorf("%s: %s outside runner.RunShard: make the shard through RunShard",
								fset.Position(sel.Pos()), sel.Sel.Name)
						}
						return true
					})
				}
			}
		}
	}
	if !found {
		t.Fatal("did not find func RunShard in this package")
	}
}

// TestShardPinnedBytes pins one fleet shard's profile.Save image at fleet
// seed 1 — a clean suite kernel, one under a fault plan, a generated
// program — to the images recorded at the commit before simulate became a
// RunShard caller: a change to how a shard is made must not move a PMDB
// byte. The digests are of those images as PMDB version 2: each recorded
// version-1 image, loaded and saved again.
func TestShardPinnedBytes(t *testing.T) {
	for _, tc := range []struct {
		job  Job
		want string
	}{
		{Job{ID: "compress/s000", Bench: "compress", Scale: 20000}, "6d805db4c2143b644c2eba0fe685490063049d941a2324c1ba5f77acfc69d795"},
		{Job{ID: "li/s000", Bench: "li", Scale: 20000, ChaosRate: 0.2}, "6aac96d2a610b10c7de400aeb8adcbb2b4e06bf8f10d78ccc96de41b5a78061d"},
		{Job{ID: "gen3/s000", GenSeed: 3, Scale: 20000}, "0a36b548f8ed490f047857dc8c243d636503dd5f9cd1ba0aa2cae98d75ea1fb7"},
	} {
		sum := sha256.Sum256(image(t, runCampaign(t, Config{Seed: 1}, []Job{tc.job})))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("shard %s moved: sha256 %s, pinned %s", tc.job.ID, got, tc.want)
		}
	}
}
