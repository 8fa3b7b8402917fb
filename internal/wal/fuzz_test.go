package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"profileme/internal/frame"
)

// buildSegment assembles a syntactically valid segment image from
// payloads, for use as fuzz seed corpus.
func buildSegment(seq uint64, payloads ...[]byte) []byte {
	buf := bytes.NewBuffer(frame.AppendUint64(frame.AppendHeader(nil, segMagic, segVersion), seq))
	for _, p := range payloads {
		frame.WriteRecord(buf, p)
	}
	return buf.Bytes()
}

// FuzzReplay feeds arbitrary bytes to the segment scanner as segment 1.
// What the bytes decode to is frame's contract (FuzzFrame); this target
// holds the log's: whatever the damage, replay must not panic, must not
// return an error (a damaged tail is data, not failure), must be
// idempotent — two scans of the same bytes yield identical records and
// truncation points — and open-with-repair must leave a log that
// replays the same intact prefix and accepts appends.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildSegment(1))
	f.Add(buildSegment(1, []byte("alpha"), []byte("beta"), bytes.Repeat([]byte{0xab}, 300)))
	// Torn tail: valid records then half a header.
	f.Add(append(buildSegment(1, []byte("intact")), 0x07, 0x00))
	// Wrong sequence number in the header.
	f.Add(buildSegment(42, []byte("misfiled")))
	// Rot in the first record: the intact one behind it must not replay.
	rotted := buildSegment(1, []byte("rotted"), []byte("suspect"))
	rotted[segHeaderBytes+recHeaderBytes] ^= 0x01
	f.Add(rotted)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan := func() ([]replayed, ReplayInfo) {
			var out []replayed
			info, err := Replay(dir, func(pos Pos, payload []byte) error {
				out = append(out, replayed{pos, append([]byte(nil), payload...)})
				return nil
			})
			if err != nil {
				t.Fatalf("replay errored on damaged input: %v", err)
			}
			return out, info
		}
		first, info1 := scan()
		second, info2 := scan()
		if len(first) != len(second) || info1.Truncated != info2.Truncated || info1.TruncatedAt != info2.TruncatedAt {
			t.Fatalf("replay not idempotent: %d/%v vs %d/%v", len(first), info1.TruncatedAt, len(second), info2.TruncatedAt)
		}
		for i := range first {
			if first[i].pos != second[i].pos || !bytes.Equal(first[i].payload, second[i].payload) {
				t.Fatalf("replay not idempotent at record %d", i)
			}
		}
		// Opening for repair must also succeed, and the repaired log must
		// replay the same intact prefix then accept appends.
		l, rinfo, err := Open(Config{Dir: dir}, nil)
		if err != nil {
			t.Fatalf("open-with-repair failed: %v", err)
		}
		if rinfo.Records != len(first) {
			t.Fatalf("repair replayed %d records, read-only replay saw %d", rinfo.Records, len(first))
		}
		if _, err := l.Append([]byte("post-repair")); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		final, info3 := scan()
		if info3.Truncated {
			t.Fatalf("log still torn after repair: %+v", info3)
		}
		if len(final) != len(first)+1 {
			t.Fatalf("after repair+append: %d records, want %d", len(final), len(first)+1)
		}
	})
}
