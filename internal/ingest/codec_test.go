package ingest

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"profileme/internal/core"
	"profileme/internal/profile"
)

// recordString draws a string from the ones encoding/json treats
// differently: plain ids, the HTML-escaped <>&, quotes and backslashes,
// control bytes, DEL, non-ASCII, U+2028/U+2029 and invalid UTF-8.
func recordString(rng *rand.Rand) string {
	parts := []string{
		"", "compress/s003", "c0", "<", ">", "&", `"`, `\`, "\x00", "\b", "\f",
		"\n", "\r", "\t", "\x1f", "\x7f", "é", "日本", "\u2028", "\u2029",
		"\xff", "\xe2\x80", "\U0001F600", "/", "=", "+",
	}
	var b []byte
	for i := rng.Intn(5); i > 0; i-- {
		b = append(b, parts[rng.Intn(len(parts))]...)
	}
	return string(b)
}

// randomRecord draws a record with every field independently empty or
// not; Shards is nil, empty or filled.
func randomRecord(rng *rand.Rand) record {
	rec := record{
		Kind:  []string{"", walKindAdmit, walKindHandoff, walKindAdopt, recordString(rng)}[rng.Intn(5)],
		Shard: recordString(rng),
		From:  recordString(rng),
		Key:   recordString(rng),
	}
	if n := rng.Intn(3); n > 0 {
		rec.Profile = make([]byte, rng.Intn(40)*n)
		rng.Read(rec.Profile)
	}
	switch rng.Intn(3) {
	case 1:
		rec.Shards = []string{}
	case 2:
		for i := 1 + rng.Intn(4); i > 0; i-- {
			rec.Shards = append(rec.Shards, recordString(rng))
		}
	}
	return rec
}

// TestOnePassReaderRefusesRawNewline: base64's decoders, Strict()
// included, skip raw '\r' and '\n', which JSON forbids inside a string.
// A canonical body or admit record with one in its span must be refused
// by the one-pass readers exactly as json.Unmarshal refuses it; accepted,
// its spliced WAL record would not be JSON and would stop replay.
func TestOnePassReaderRefusesRawNewline(t *testing.T) {
	db := testShard(7, 25)
	body, err := EncodeSubmit("compress/s003", db)
	if err != nil {
		t.Fatal(err)
	}
	admit, err := encodeAdmitRecord(Submission{Shard: "compress/s003", DB: db})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []string{"\n", "\r", "\r\n", "\n\n\n\n"} {
		for _, data := range [][]byte{breakSpan(body, cut), breakSpan(admit, cut)} {
			var rec record
			if json.Unmarshal(data, &rec) == nil {
				t.Fatalf("%q: encoding/json accepts the broken span", cut)
			}
			if _, err := DecodeSubmit(data); !errors.Is(err, errBadSubmit) {
				t.Errorf("%q: DecodeSubmit = %v, want errBadSubmit", cut, err)
			}
			if _, _, _, err := decodeWALRecord(data); !errors.Is(err, errBadWALRecord) {
				t.Errorf("%q: decodeWALRecord = %v, want errBadWALRecord", cut, err)
			}
			if _, err := decodeRecordHead(data); !errors.Is(err, errBadWALRecord) {
				t.Errorf("%q: decodeRecordHead = %v, want errBadWALRecord", cut, err)
			}
		}
	}
}

// TestAppendRecordMatchesMarshal: the one record writer emits exactly
// json.Marshal's bytes, with the profile encoded by the writer or copied
// in as already-encoded base64, and encodeRecord is that writer.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 3000; i++ {
		rec := randomRecord(rng)
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, rec, nil); !bytes.Equal(got, want) {
			t.Fatalf("record %d %+v:\n got %s\nwant %s", i, rec, got, want)
		}
		spliced := rec
		spliced.Profile = nil
		b64 := []byte(base64.StdEncoding.EncodeToString(rec.Profile))
		if got := appendRecord([]byte{}, spliced, b64); !bytes.Equal(got, want) {
			t.Fatalf("record %d from its base64:\n got %s\nwant %s", i, got, want)
		}
		if got, err := encodeRecord(rec, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: encodeRecord gave %s (%v), want %s", i, got, err, want)
		}
	}
}

// wideShard holds pcs distinct PCs, one to three samples each.
func wideShard(pcs int) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < pcs; i++ {
		for k := 0; k <= i%3; k++ {
			r := core.Record{PC: 0x400000 + 4*uint64(i), LoadComplete: -1}
			for j := range r.StageCycle {
				r.StageCycle[j] = -1
			}
			r.StageCycle[core.StageFetch] = int64(i)
			r.StageCycle[core.StageRetire] = int64(i + 9 + k)
			r.Events = core.EvRetired
			db.Add(core.Sample{First: r})
		}
	}
	return db
}

// decodeAlloc is what DecodeSubmit allocates per canonical body, as
// {allocations, bytes}: the envelope (the shard id and one buffer for the
// decoded profile) plus LoadDB. A run may exceed neither by more than
// 15%; lower a value when a change allocates less. Reading the envelope
// with encoding/json costs four allocations more.
var decodeAlloc = []struct {
	shape string
	pcs   int
	want  [2]uint64
}{
	{"wide", 2048, [2]uint64{20, 811617}},
	{"narrow", 32, [2]uint64{14, 13376}},
}

// TestDecodeSubmitAlloc is the allocation gate of the submission
// envelope, in the style of profile's TestWideMergeAlloc: a wide and a
// narrow canonical body, each read by the one-pass reader.
func TestDecodeSubmitAlloc(t *testing.T) {
	const runs = 20
	for _, row := range decodeAlloc {
		body, err := EncodeSubmit(row.shape+"/s00001", wideShard(row.pcs))
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			if _, err := DecodeSubmit(body); err != nil {
				t.Fatal(err)
			}
		}
		allocs := uint64(testing.AllocsPerRun(runs, decode))
		size := allocatedBytes(func() {
			for i := 0; i < runs; i++ {
				decode()
			}
		}) / runs
		t.Logf("per %s body (%d B): %d allocations, %d B", row.shape, len(body), allocs, size)
		switch {
		case float64(allocs) > 1.15*float64(row.want[0]):
			t.Errorf("per %s body: %d allocations, want <= %d + 15%%", row.shape, allocs, row.want[0])
		case float64(size) > 1.15*float64(row.want[1]):
			t.Errorf("per %s body: %d bytes, want <= %d + 15%%", row.shape, size, row.want[1])
		}
	}
}
