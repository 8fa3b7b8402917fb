package frame_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/traffic"
)

// allocated reports the bytes f allocates (tests here do not run in
// parallel, so the process-wide counter is f's alone).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// unsized hides a reader's Len method, forcing frame onto the path that
// cannot ask how many bytes are left.
type unsized struct{ io.Reader }

// TestForgedLengthAllocatesLittle is the regression test for the one
// safety property the four private framings had diverged on: a declared
// length inside the format's cap but far beyond the bytes present must
// fail ErrTruncated having allocated O(bytes present), not the declared
// length. Before internal/frame the three inputs below allocated 256,
// 272 and 64 MiB.
func TestForgedLengthAllocatesLittle(t *testing.T) {
	forged := func(magic string, version uint32, declared uint64) []byte {
		return frame.AppendUint64(frame.AppendHeader(nil, magic, version), declared)
	}
	submit, err := json.Marshal(map[string]any{"shard": "x/s0", "profile": forged("PMDB", 2, 1<<28)})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := forged("PMCK", 2, 1<<28+1<<24)
	var trace bytes.Buffer
	if _, err := traffic.NewWriter(&trace, traffic.Meta{Source: "forged"}); err != nil {
		t.Fatal(err)
	}
	trace.Write([]byte{0, 0, 0, 4, 0, 0, 0, 0}) // record header: len 1<<26, no payload behind it

	cases := []struct {
		what   string
		decode func() error
	}{
		{"submit body with a forged PMDB length", func() error { _, err := ingest.DecodeSubmit(submit); return err }},
		{"forged PMCK length", func() error { _, err := ingest.ReadCheckpoint(bytes.NewReader(ckpt)); return err }},
		{"forged PMCK length, unsized reader", func() error { _, err := ingest.ReadCheckpoint(unsized{bytes.NewReader(ckpt)}); return err }},
		{"forged PMTF record length", func() error { _, _, err := traffic.ReadAll(bytes.NewReader(trace.Bytes())); return err }},
		{"forged PMTF record length, unsized reader", func() error { _, _, err := traffic.ReadAll(unsized{bytes.NewReader(trace.Bytes())}); return err }},
	}
	for _, c := range cases {
		var err error
		got := allocated(func() { err = c.decode() })
		if !errors.Is(err, frame.ErrTruncated) {
			t.Errorf("%s: want ErrTruncated, got %v", c.what, err)
		}
		if got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for an input of under 100", c.what, got)
		}
	}
}

// TestOnlyFrameChecksums is the guard against a fifth framing growing
// back: outside bench/ (a module of its own), no non-test Go file but
// this package's may import hash/crc32.
func TestOnlyFrameChecksums(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "frame") || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"hash/crc32"` {
				t.Errorf("%s imports hash/crc32: checksummed framing belongs to internal/frame", rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
