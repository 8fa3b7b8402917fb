package traffic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"profileme/internal/frame"
)

// driveTrace materializes the test spec and writes its trace to a
// buffer, record-only (nil sink).
func driveTrace(t *testing.T, sp *Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Spec: sp, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(context.Background(), sp, nil, w, Options{}); err != nil {
		t.Fatal(err)
	}
	if w.n == 0 {
		t.Fatal("trace has no records")
	}
	return buf.Bytes()
}

func smallSpec() *Spec {
	sp := testSpec()
	sp.DurationS = 20
	sp.Cohorts[0].Shards = 2
	sp.Cohorts[1].Shards = 2
	return sp
}

func TestTraceRoundTripAndBitIdentical(t *testing.T) {
	sp := smallSpec()
	b1 := driveTrace(t, sp)
	b2 := driveTrace(t, smallSpec())
	if !bytes.Equal(b1, b2) {
		t.Fatal("same spec + same seed did not produce a bit-identical trace file")
	}

	meta, recs, err := ReadAll(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Spec == nil || meta.Spec.Seed != sp.Seed || meta.Source != "test" {
		t.Fatalf("meta did not round-trip: %+v", meta)
	}
	if len(recs) == 0 {
		t.Fatal("no records read back")
	}
	sched, err := sp.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sched) {
		t.Fatalf("%d records != %d scheduled arrivals", len(recs), len(sched))
	}
	for i := range recs {
		if recs[i].OffsetUS != sched[i].OffsetUS || recs[i].Cohort != sched[i].Cohort {
			t.Fatalf("record %d (%+v) does not match schedule (%+v)", i, recs[i], sched[i])
		}
		if len(recs[i].Body) == 0 || recs[i].Shard == "" {
			t.Fatalf("record %d incomplete", i)
		}
	}
}

func TestTraceTornTail(t *testing.T) {
	full := driveTrace(t, smallSpec())
	_, whole, err := ReadAll(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final record: every earlier record must
	// come back intact, then the typed truncation error.
	torn := full[:len(full)-7]
	meta, recs, err := ReadAll(bytes.NewReader(torn))
	if !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("torn tail: want frame.ErrTruncated, got %v", err)
	}
	if meta.Spec == nil {
		t.Fatal("torn tail lost the meta block")
	}
	if len(recs) != len(whole)-1 {
		t.Fatalf("recovered %d of %d records before the tear", len(recs), len(whole))
	}
}

func TestTraceBitFlip(t *testing.T) {
	full := driveTrace(t, smallSpec())
	// Flip one bit inside the last record's payload (well past the
	// header): the reader must answer frame.ErrCorrupt, not garbage.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-20] ^= 0x40
	_, _, err := ReadAll(bytes.NewReader(flipped))
	if !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("bit flip: want frame.ErrCorrupt, got %v", err)
	}
}

func TestTraceVersionSkewAndBadMagic(t *testing.T) {
	full := driveTrace(t, smallSpec())
	skewed := append([]byte(nil), full...)
	skewed[4] = 99 // version field
	if _, err := newReader(bytes.NewReader(skewed)); !errors.Is(err, frame.ErrVersionSkew) {
		t.Fatalf("version skew: want frame.ErrVersionSkew, got %v", err)
	}
	notTrace := []byte("PMDBxxxxxxxxxxxxxxxx")
	if _, err := newReader(bytes.NewReader(notTrace)); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("bad magic: want frame.ErrCorrupt, got %v", err)
	}
	if _, err := newReader(bytes.NewReader(full[:6])); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("short header: want frame.ErrTruncated, got %v", err)
	}
}

// FuzzTraceDecode feeds the reader arbitrary meta and record payloads
// inside well-formed frames. What damaged framing decodes to is
// internal/frame's contract (FuzzFrame); the contract here is the
// payloads': one the frame vouches for but JSON or the field checks
// refuse is ErrCorrupt, never a panic, and an accepted record is
// complete.
func FuzzTraceDecode(f *testing.F) {
	meta, _ := json.Marshal(Meta{Spec: smallSpec(), Source: "fuzz"})
	rec, _ := json.Marshal(Record{OffsetUS: 10, Cohort: "c", Shard: "c/s000", Body: []byte("xx")})
	f.Add(meta, rec)
	f.Add([]byte(`{"source":"live"}`), rec)
	f.Add([]byte(`{"spec":{"version":9}}`), rec)
	f.Add(meta, []byte(`{"shard":"c/s000"}`))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, meta, rec []byte) {
		buf := bytes.NewBuffer(frame.AppendHeader(nil, traceMagic, traceVersion))
		frame.WriteBlock(buf, meta)
		frame.WriteRecord(buf, rec)
		tr, err := newReader(buf)
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("intact frames, bad meta: want ErrCorrupt, got %v", err)
			}
			return
		}
		got, err := tr.next()
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("intact frames, bad record: want ErrCorrupt, got %v", err)
			}
			return
		}
		if got.Shard == "" || len(got.Body) == 0 {
			t.Fatalf("accepted record incomplete: %+v", got)
		}
		if _, err := tr.next(); err != io.EOF {
			t.Fatalf("after the only record: want io.EOF, got %v", err)
		}
	})
}
