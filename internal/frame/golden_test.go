package frame_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"profileme/internal/frame"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/traffic"
	"profileme/internal/wal"
)

// golden holds the testdata/ fixtures: one instance of each format,
// written by the four packages' own framing code at the commit before
// internal/frame replaced it — except the version-2 PMDB, written when
// that version replaced the gob image, and the version-2 PMCK, written
// when the row table replaced the gob ledger. built holds the same four
// instances written by today's writers. Both are filled once, in
// TestMain.
var golden, built map[string][]byte

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "frame-golden")
	if err == nil {
		built, err = buildFixtures(dir)
		os.RemoveAll(dir)
	}
	golden = map[string][]byte{}
	for _, name := range []string{fixPMDB, fixPMCK, fixPMWS, fixPMTF} {
		if err == nil {
			golden[name], err = os.ReadFile(filepath.Join("testdata", name))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "frame tests: fixtures:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestWritersReproduceGolden: on-disk bytes of all four formats are what
// their fixtures recorded.
func TestWritersReproduceGolden(t *testing.T) {
	for name, got := range built {
		if want := golden[name]; !bytes.Equal(got, want) {
			t.Errorf("%s: writer output differs from the fixture (%d vs %d bytes)\n got %x\nwant %x",
				name, len(got), len(want), got, want)
		}
	}
}

// TestReadersDecodeGolden: today's readers recover exactly what the old
// writers were given, a PMDB loaded and saved again is its fixture byte
// for byte, and a PMDB or PMCK fixture relabelled version 1 (the retired
// gob format) is version skew.
func TestReadersDecodeGolden(t *testing.T) {
	want := fixtureDB()
	db, err := profile.LoadDB(bytes.NewReader(golden[fixPMDB]))
	if err != nil {
		t.Fatalf("%s: %v", fixPMDB, err)
	}
	if db.Samples() != want.Samples() || db.Lost() != want.Lost() || !reflect.DeepEqual(db.PCs(), want.PCs()) {
		t.Fatalf("%s: decoded %d samples / %d lost / PCs %v, want %d / %d / %v", fixPMDB,
			db.Samples(), db.Lost(), db.PCs(), want.Samples(), want.Lost(), want.PCs())
	}
	var again bytes.Buffer
	if err := db.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden[fixPMDB]) {
		t.Fatalf("%s: loaded and saved again, differs", fixPMDB)
	}

	ck, err := ingest.ReadCheckpoint(bytes.NewReader(golden[fixPMCK]))
	if err != nil {
		t.Fatalf("%s: %v", fixPMCK, err)
	}
	if !bytes.Equal(ck.Profile, golden[fixPMDB]) || !reflect.DeepEqual(ck.Applied, []string{"a/s000", "a/s001"}) ||
		!reflect.DeepEqual(ck.RefusedLoss, map[string]uint64{"a/s002": 7}) ||
		!reflect.DeepEqual(ck.HandoffFrom, []ingest.Provenance{{Shard: "a/s003", From: "c1"}}) ||
		!reflect.DeepEqual(ck.AppliedHandoffs, []string{"1:16"}) ||
		!reflect.DeepEqual(ck.HandoffKeys, map[string]uint64{"00112233445566778899aabbccddeeff": 9}) ||
		ck.Barrier != (wal.Pos{Seg: 1, Off: 16}) {
		t.Fatalf("%s: decoded %+v", fixPMCK, ck)
	}

	for _, f := range wholeFileFormats {
		v1 := bytes.Clone(golden[f.fixture])
		v1[4] = 1
		if err := f.decode(v1); !errors.Is(err, frame.ErrVersionSkew) {
			t.Errorf("%s relabelled v1: %v, want ErrVersionSkew", f.fixture, err)
		}
	}

	if n, err := scanPMWS(t, golden[fixPMWS]); n != len(walPayloads) || err != nil {
		t.Fatalf("PMWS: %d records, err %v", n, err)
	}
	info := replayBytes(t, golden[fixPMWS], nil)
	if info.Records != len(walPayloads) || info.Truncated {
		t.Fatalf("PMWS: wal.Replay %+v", info)
	}

	meta, recs, err := traffic.ReadAll(bytes.NewReader(golden[fixPMTF]))
	if err != nil || meta.Source != "golden" || !reflect.DeepEqual(recs, traceRecs) {
		t.Fatalf("PMTF: meta %+v, records %+v, err %v", meta, recs, err)
	}
}

// scanPMWS reads a segment image with frame's primitives alone, checking
// each delivered payload against the fixture's (a garbage record fails
// the test), and returns how many records were intact and the typed
// error that ended the scan (nil for a clean end).
func scanPMWS(t *testing.T, seg []byte) (int, error) {
	t.Helper()
	r := bytes.NewReader(seg)
	if err := frame.ReadHeader(r, "PMWS", 1); err != nil {
		return 0, err
	}
	if seq, err := frame.ReadUint64(r); err != nil {
		return 0, err
	} else if seq != 1 {
		return 0, fmt.Errorf("segment claims seq %d: %w", seq, frame.ErrCorrupt)
	}
	var buf []byte
	for n := 0; ; n++ {
		var err error
		if buf, err = frame.ReadRecord(r, buf, 1<<20); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		if n >= len(walPayloads) || !bytes.Equal(buf, walPayloads[n]) {
			t.Fatalf("garbage record %d delivered: %x", n, buf)
		}
	}
}

// scanPMTF is scanPMWS for a trace, through traffic's reader.
func scanPMTF(t *testing.T, trace []byte) (int, error) {
	t.Helper()
	_, recs, err := traffic.ReadAll(bytes.NewReader(trace))
	for i, rec := range recs {
		if i >= len(traceRecs) || !reflect.DeepEqual(rec, traceRecs[i]) {
			t.Fatalf("garbage record %d delivered: %+v", i, rec)
		}
	}
	return len(recs), err
}

// replayBytes runs wal.Replay over seg as segment 1 of a fresh log.
func replayBytes(t *testing.T, seg []byte, apply func(wal.Pos, []byte) error) wal.ReplayInfo {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walSegment1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := wal.Replay(dir, apply)
	if err != nil {
		t.Fatalf("wal.Replay errored on damaged input: %v", err)
	}
	return info
}

// format pairs a fixture with the reader that decodes it.
type format struct {
	fixture string
	decode  func([]byte) error
}

var (
	loadPMDB         = func(b []byte) error { _, err := profile.LoadDB(bytes.NewReader(b)); return err }
	readPMCK         = func(b []byte) error { _, err := ingest.ReadCheckpoint(bytes.NewReader(b)); return err }
	wholeFileFormats = []format{{fixPMDB, loadPMDB}, {fixPMCK, readPMCK}}
)

// damaged is one table input: the fixture with a prefix cut or one bit
// flipped.
type damaged struct {
	what  string
	bytes []byte
}

// everyDamage lists every proper prefix and every single-bit flip of b.
func everyDamage(b []byte) []damaged {
	var out []damaged
	for cut := 0; cut < len(b); cut++ {
		out = append(out, damaged{fmt.Sprintf("cut at %d", cut), b[:cut]})
	}
	for bit := 0; bit < 8*len(b); bit++ {
		flipped := bytes.Clone(b)
		flipped[bit/8] ^= 1 << (bit % 8)
		out = append(out, damaged{fmt.Sprintf("bit %d of byte %d flipped", bit%8, bit/8), flipped})
	}
	return out
}

func typed(err error) bool {
	return errors.Is(err, frame.ErrCorrupt) || errors.Is(err, frame.ErrTruncated) || errors.Is(err, frame.ErrVersionSkew)
}

// TestEveryCutAndBitFlip: every proper prefix and every single-bit flip
// of every fixture fails with a typed error — ErrTruncated for a cut —
// and the two streams deliver their intact records first, never a
// garbage one (the scanners check payloads); a stream cut exactly on a
// record boundary is the one damaged input that reads clean. wal.Replay
// must agree with the frame scan on every input: same record count,
// Truncated exactly when the scan erred, TruncatedAt at the first byte
// past the last intact record (offset 0 when the segment header itself
// is bad).
func TestEveryCutAndBitFlip(t *testing.T) {
	for _, f := range wholeFileFormats {
		for _, d := range everyDamage(golden[f.fixture]) {
			err := f.decode(d.bytes)
			cut := len(d.bytes) < len(golden[f.fixture])
			if !typed(err) || (cut && !errors.Is(err, frame.ErrTruncated)) {
				t.Errorf("%s %s: got %v", f.fixture, d.what, err)
			}
		}
	}

	// offsets[n] is the first byte past the segment's n-th record.
	offsets := []int64{frame.HeaderLen + 8}
	for n, p := range walPayloads {
		offsets = append(offsets, offsets[n]+int64(frame.RecordHeaderLen+len(p)))
	}
	for _, d := range everyDamage(golden[fixPMWS]) {
		n, err := scanPMWS(t, d.bytes)
		cut := len(d.bytes) < len(golden[fixPMWS])
		switch {
		case err == nil && !(cut && slices.Contains(offsets, int64(len(d.bytes)))):
			t.Errorf("PMWS %s: accepted", d.what)
		case err != nil && !typed(err):
			t.Errorf("PMWS %s: untyped error %v", d.what, err)
		case err != nil && cut && !errors.Is(err, frame.ErrTruncated):
			t.Errorf("PMWS %s: want ErrTruncated, got %v", d.what, err)
		}
		info := replayBytes(t, d.bytes, nil)
		wantAt := wal.Pos{}
		if err != nil {
			wantAt = wal.Pos{Seg: 1, Off: offsets[n]}
			if len(d.bytes) < int(offsets[0]) || !bytes.Equal(d.bytes[:offsets[0]], golden[fixPMWS][:offsets[0]]) {
				wantAt.Off = 0
			}
		}
		if info.Records != n || info.Truncated != (err != nil) || info.TruncatedAt != wantAt {
			t.Errorf("PMWS %s: wal.Replay %+v, frame scan says %d records then %v (cut at %v)", d.what, info, n, err, wantAt)
		}
	}

	for _, d := range everyDamage(golden[fixPMTF]) {
		n, err := scanPMTF(t, d.bytes)
		cut := len(d.bytes) < len(golden[fixPMTF])
		switch {
		case err == nil && !(cut && n < len(traceRecs)):
			t.Errorf("PMTF %s: accepted", d.what)
		case err != nil && !typed(err):
			t.Errorf("PMTF %s: untyped error %v", d.what, err)
		case err != nil && cut && !errors.Is(err, frame.ErrTruncated):
			t.Errorf("PMTF %s: want ErrTruncated, got %v", d.what, err)
		}
	}
}

// TestOneTaxonomy: a bad-magic, a bit-flipped, a truncated and a
// version-skewed instance of each format fails with the matching frame
// error, and the PMDB / PMCK cases still match the profile.Err* names the
// server's 400 mapping and pmsimd's quarantine classify with.
func TestOneTaxonomy(t *testing.T) {
	formats := append(wholeFileFormats,
		format{fixPMWS, func(b []byte) error { _, err := scanPMWS(t, b); return err }},
		format{fixPMTF, func(b []byte) error { _, err := scanPMTF(t, b); return err }})
	mutate := func(b []byte, at int, to byte) []byte {
		b = bytes.Clone(b)
		b[at] = to
		return b
	}
	for _, f := range formats {
		good := golden[f.fixture]
		if err := f.decode(good); err != nil {
			t.Fatalf("%s: intact fixture: %v", f.fixture, err)
		}
		cases := []struct {
			what       string
			input      []byte
			want       error
			wantLegacy error
		}{
			{"bad magic", mutate(good, 0, 'X'), frame.ErrCorrupt, profile.ErrCorrupt},
			{"bit flip in the last payload", mutate(good, len(good)-6, good[len(good)-6]^0x10), frame.ErrCorrupt, profile.ErrCorrupt},
			{"truncated header", good[:5], frame.ErrTruncated, profile.ErrTruncated},
			{"truncated tail", good[:len(good)-3], frame.ErrTruncated, profile.ErrTruncated},
			{"version skew", mutate(good, 4, 9), frame.ErrVersionSkew, profile.ErrVersionSkew},
		}
		for _, c := range cases {
			err := f.decode(c.input)
			if !errors.Is(err, c.want) || !errors.Is(err, c.wantLegacy) {
				t.Errorf("%s, %s: got %v, want %v", f.fixture, c.what, err, c.want)
			}
			for _, other := range []error{frame.ErrCorrupt, frame.ErrTruncated, frame.ErrVersionSkew} {
				if other != c.want && errors.Is(err, other) {
					t.Errorf("%s, %s: %v also matches %v", f.fixture, c.what, err, other)
				}
			}
		}
	}
}
