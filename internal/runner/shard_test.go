package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/workload"
)

// TestOneShardPath keeps RunShard the one way a profiled run is made. In
// every non-test file of the module (bench/ is a module of its own) no
// function but RunShard builds a ProfileMe unit or attaches one to a
// pipeline, save the exceptions named below with their reasons; a run with
// no unit is a plain cpu.New call. In cmd/pmsim, internal/runner and
// internal/traffic no other function builds a machine source, a pipeline
// or a profile database either. A selector is resolved through its file's
// imports, so an aliased import is no way round the rule, and a dot import
// of a guarded package fails outright.
func TestOneShardPath(t *testing.T) {
	const internal = "profileme/internal/"
	unit := map[string]bool{internal + "core.NewUnit": true, internal + "core.MustNewUnit": true}
	shard := map[string]bool{
		internal + "sim.NewMachineSource": true, internal + "cpu.New": true,
		internal + "cpu.NewWithHierarchy": true, internal + "profile.NewDB": true,
	}
	shardDirs := map[string]bool{"cmd/pmsim": true, "internal/runner": true, "internal/traffic": true}
	// The runs RunShard cannot make. An exception that no longer builds a
	// unit fails the test: delete it.
	exceptions := map[string]string{
		"internal/difftest.Run": "installs a leave observer before the run and " +
			"hashes the final state of the machine that fed the pipeline",
		"internal/experiments.multiprocess": "one unit samples two time-sliced " +
			"pipelines over a shared hierarchy, which is what §4.1.3 measures",
	}
	used := map[string]bool{}
	found := false
	fset := token.NewFileSet()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			_, err := os.Stat(filepath.Join(path, "go.mod"))
			if err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, .git
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		dir := filepath.ToSlash(rel)
		imports := map[string]string{}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." && strings.HasPrefix(p, internal) {
				t.Errorf("%s: dot import of %s hides what a call builds", fset.Position(imp.Pos()), p)
			}
			imports[name] = p
		}
		for _, decl := range file.Decls {
			fn := dir + "." + declName(decl)
			if fn == "internal/runner.RunShard" {
				found = true
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				var target string
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					target = imports[x.Name] + "." + sel.Sel.Name
				}
				banned := unit[target] || sel.Sel.Name == "AttachProfileMe"
				if banned && exceptions[fn] != "" {
					used[fn] = true
				} else if banned || shardDirs[dir] && shard[target] {
					t.Errorf("%s: %s in %s: make the run through runner.RunShard",
						fset.Position(sel.Pos()), sel.Sel.Name, fn)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("did not find func RunShard in internal/runner")
	}
	for fn, why := range exceptions {
		if !used[fn] {
			t.Errorf("stale exception %s (%s): it builds no unit any more, delete it", fn, why)
		}
	}
}

// declName names a top-level declaration as TestOneShardPath reports it:
// a function, Type.Method for a method, or a placeholder for the
// package-level var, const, type and import blocks.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "<package scope>"
	}
	if fn.Recv != nil {
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
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

// TestCountEstimatesSumToFetches holds every count estimate to one scale
// per record: at the realized interval (profile.DB.Realize), the per-PC
// fetch estimates of a run sum to its on-path fetches within 1%, with
// single and with paired sampling, on every suite kernel — from the
// database (EstimatedCount) and from the view a collector publishes
// (View.Estimate). A paired sample holds two records, so a paired
// database that scaled each by S alone would read 2.00.
func TestCountEstimatesSumToFetches(t *testing.T) {
	for _, name := range workload.Names() {
		b, _ := workload.ByName(name)
		for _, paired := range []bool{false, true} {
			ucfg := core.DefaultConfig()
			ucfg.MeanInterval, ucfg.Paired, ucfg.BufferDepth = 512, paired, 64
			sh, err := RunShard(context.Background(), b.Build(200_000), cpu.DefaultConfig(), ucfg, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			db := sh.DB
			db.Realize(sh.Result.FetchedOnPath)
			var fromDB, fromView float64
			var samples []uint64
			for _, pc := range db.PCs() {
				fromDB += db.EstimatedCount(pc)
				samples = append(samples, db.Get(pc).Samples)
			}
			v := profile.NewSafeDBWith(db, profile.SketchConfig{}).View()
			for _, k := range samples {
				fromView += v.Estimate(k)
			}
			fetched := float64(sh.Result.FetchedOnPath)
			if db.Samples() < 100 || (db.Pairs() > 0) != paired {
				t.Fatalf("%s (paired %v): %d samples, %d pairs", name, paired, db.Samples(), db.Pairs())
			}
			for what, sum := range map[string]float64{"database": fromDB, "view": fromView} {
				if r := sum / fetched; math.Abs(r-1) > 0.01 {
					t.Errorf("%s (paired %v): the %s's estimates sum to %.0f, %.3f x the %d on-path fetches",
						name, paired, what, sum, r, sh.Result.FetchedOnPath)
				}
			}
		}
	}
}

// TestExactProfile holds Exact's mapping of the pipeline's ground truth to
// the sampled database's slots, on every suite kernel: the exact retired
// events sum to the run's retirements and the exact samples to its on-path
// fetches; the sampled database holds every sample the unit captured
// (Samples()+Lost(), what profile.DB.Realize divides by); and the exact
// profile joined with itself at scale 1 estimates its truth on every row.
func TestExactProfile(t *testing.T) {
	names := workload.Names()
	if len(names) != 11 {
		t.Fatalf("%d suite kernels, want 11", len(names))
	}
	counts := map[string]func(*profile.PCAccum) uint64{
		"retired": (*profile.PCAccum).Retired,
		"samples": func(a *profile.PCAccum) uint64 { return a.Samples },
	}
	for _, name := range names {
		b, _ := workload.ByName(name)
		sh, err := RunShard(context.Background(), b.Build(20_000), cpu.DefaultConfig(), core.DefaultConfig(), nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact := Exact(sh.Pipeline)
		var retired, fetched uint64
		for _, pc := range exact.PCs() {
			retired += exact.Get(pc).Retired()
			fetched += exact.Get(pc).Samples
		}
		if retired != sh.Result.Retired || fetched != sh.Result.FetchedOnPath || exact.Samples() != fetched {
			t.Errorf("%s: exact profile retires %d and fetches %d (%d samples), the run %d and %d",
				name, retired, fetched, exact.Samples(), sh.Result.Retired, sh.Result.FetchedOnPath)
		}
		if got, want := sh.DB.Samples()+sh.DB.Lost(), sh.Stats.Captured(); got != want {
			t.Errorf("%s: database holds %d samples and losses, the unit captured %d", name, got, want)
		}
		for what, count := range counts {
			for _, r := range profile.Join(exact, exact, count, 1) {
				if r.K != r.Truth || r.Estimate != float64(r.Truth) {
					t.Errorf("%s: %s self-join at pc %#x: k %d, estimate %v, truth %d", name, what, r.PC, r.K, r.Estimate, r.Truth)
				}
			}
		}
	}
}
