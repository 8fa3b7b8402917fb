package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/frame"
	"profileme/internal/profile"
	"profileme/internal/wal"
)

// ckptPayload assembles a version-2 payload row by row, with no checks:
// the reader's named rejections are built from it.
type ckptPayload []byte

func (p ckptPayload) n(v uint64) ckptPayload { return binary.AppendUvarint(p, v) }

// key appends a key row: shared-prefix length, then the suffix.
func (p ckptPayload) key(shared uint64, suffix string) ckptPayload {
	return append(p.n(shared).n(uint64(len(suffix))), suffix...)
}

// image appends an image block of size bytes, declared as declared.
func (p ckptPayload) image(declared uint64, size int) ckptPayload {
	return append(binary.LittleEndian.AppendUint64(p, declared), make([]byte, size)...)
}

// envelope frames p as a PMCK v2 file.
func (p ckptPayload) envelope(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := frame.WriteEnvelope(&b, "PMCK", 2, func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointRowBounds: each way a CRC-valid version-2 payload can
// break the ledger's invariants is its own named ErrCorrupt, and a
// count the bytes present cannot hold fails before anything is
// allocated for it.
func TestCheckpointRowBounds(t *testing.T) {
	barrier := slices.Clip(ckptPayload{}.n(1).n(32)) // seg 1, off 16; each case appends to a copy
	rest := func(p ckptPayload, lists int) ckptPayload {
		for ; lists > 0; lists-- {
			p = p.n(0)
		}
		return p.image(0, 0)
	}
	long := strings.Repeat("x", maxShared+6)
	cases := []struct {
		name, want string
		payload    ckptPayload
	}{
		{"duplicate applied id", "not strictly ascending",
			rest(barrier.n(2).key(0, "a/s1").key(4, ""), 4)},
		{"unsorted applied ids", "not strictly ascending",
			rest(barrier.n(2).key(0, "a/s2").key(3, "1"), 4)},
		{"unsorted adopted ids", "not strictly ascending",
			rest(append(barrier.n(0).n(2).key(0, "b").n(2), "c1"...).key(0, "a").n(2), 3)},
		{"duplicate refused id", "not strictly ascending",
			rest(barrier.n(0).n(0).n(2).key(0, "r").n(5).key(1, "").n(5), 2)},
		{"unsorted handoff keys", "not strictly ascending",
			rest(barrier.n(0).n(0).n(0).n(0).n(2).key(0, "ff").n(1).key(0, "00").n(1), 0)},
		{"shared prefix longer than the previous id", "shared prefix 5 longer",
			rest(barrier.n(2).key(0, "a/s1").key(5, "x"), 4)},
		{"shared prefix on the first row", "shared prefix 1 longer",
			rest(barrier.n(1).key(1, "a"), 4)},
		{"shared prefix over the cap", fmt.Sprintf("shared prefix %d longer", maxShared+1),
			rest(barrier.n(2).key(0, long).key(maxShared+1, "y"), 4)},
		{"applied count beyond the bytes present", "declared 268435456 items",
			barrier.n(1 << 28)},
		{"adopted count beyond the bytes present", "declared 268435456 items",
			barrier.n(0).n(1 << 28)},
		{"suffix longer than the bytes present", "declared 4096 items",
			barrier.n(1).n(0).n(4096)},
		{"no image length", "image length",
			barrier.n(0).n(0).n(0).n(0).n(0)},
		{"image longer than the bytes present", "declared image 9 bytes in 8",
			barrier.n(0).n(0).n(0).n(0).n(0).image(9, 8)},
		{"trailing bytes", "1 bytes after the image",
			barrier.n(0).n(0).n(0).n(0).n(0).image(8, 9)},
	}
	for _, c := range cases {
		file := c.payload.envelope(t)
		var err error
		got := allocatedBytes(func() { _, err = ReadCheckpoint(bytes.NewReader(file)) })
		if !errors.Is(err, profile.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrCorrupt saying %q", c.name, err, c.want)
		}
		if got > 64<<10 {
			t.Errorf("%s: allocated %d bytes reading %d", c.name, got, len(file))
		}
	}

	// The writer refuses what the reader would: nothing is written.
	var buf bytes.Buffer
	for _, ck := range []*Checkpoint{
		{Applied: []string{"a/s2", "a/s1"}},
		{Applied: []string{"a/s1", "a/s1"}},
		{HandoffFrom: []Provenance{{"b", "c1"}, {"a", "c1"}}},
	} {
		if err := WriteCheckpoint(&buf, ck); err == nil || buf.Len() != 0 {
			t.Errorf("WriteCheckpoint(%+v): err %v, %d bytes written", ck, err, buf.Len())
		}
	}
}

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointCostFlatInIDs measures one checkpoint as the service
// takes it — persistCheckpoint: snapshot, the aggregate's image and the
// ledger rows encoded under res, the file written — after 8 ids were
// applied since the last, over ledgers of 10^4, 10^5 and 10^6 applied
// ids beside a 512-PC aggregate. What it allocates beyond the file must
// not grow with the ids the ledger holds: folding 8 ids into a sorted
// set and encoding it needs no copy of the set, and the rows are encoded
// into an array sized from the last checkpoint's. It logs µs, bytes and
// allocations per checkpoint, file bytes per id and heap per id. The
// budget is what does not depend on the ids — the image buffer's
// headroom, the rows' slack, the file write — about 12–16 KB, 34–38 KB
// under the race detector; a copy of the set takes 16 B per id.
func TestCheckpointCostFlatInIDs(t *testing.T) {
	const fresh, budget = 8, 64 << 10
	aggregate := func() *profile.DB {
		db := profile.NewDB(16, 0, 4)
		for pc := uint64(0); pc < 512; pc++ {
			r := core.Record{PC: 0x400 + 4*pc, LoadComplete: -1}
			for j := range r.StageCycle {
				r.StageCycle[j] = -1
			}
			r.Events = core.EvRetired
			db.Add(core.Sample{First: r})
		}
		return db
	}
	for _, n := range []int{1e4, 1e5, 1e6} {
		var base runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&base)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("narrow/r%04d/s%05d", i/1000, i%1000)
		}
		path := filepath.Join(t.TempDir(), "ckpt")
		s, err := newService(Config{Interval: 16, CheckpointPath: path}, &Checkpoint{db: aggregate(), Applied: slices.Clone(ids)}) // the ledger owns what it restores
		if err != nil {
			t.Fatal(err)
		}
		round := 0
		apply := func() { // spread over the set, as retries of old rounds land
			for j := 0; j < fresh; j++ {
				s.led.resolve(fmt.Sprintf("%s+%d", ids[(j*n+round)/fresh], round), wal.Pos{}, 1, true)
			}
			round++
		}
		for warm := 0; warm < 2; warm++ { // the first two folds size the set's two arrays
			apply()
			if err := s.persistCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}
		apply()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = s.persistCheckpoint()
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		alloc, mallocs, file := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, uint64(fi.Size())
		runtime.GC()
		runtime.ReadMemStats(&after)
		t.Logf("%8d ids: %7.0f µs, %8d B in %3d allocations per checkpoint, %6d B beyond its %8d B file (%.2f B/id); heap %.0f B/id",
			n, float64(took.Microseconds()), alloc, mallocs, int64(alloc-file), file,
			float64(file)/float64(n), float64(after.HeapAlloc-base.HeapAlloc)/float64(n))
		if alloc > file+budget {
			t.Errorf("%d ids: one checkpoint allocated %d bytes beyond its %d-byte file, budget %d: it copies the ledger",
				n, alloc-file, file, budget)
		}
		runtime.KeepAlive(s)
	}
}
