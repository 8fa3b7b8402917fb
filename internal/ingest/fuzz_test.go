package ingest

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"profileme/internal/profile"
)

// FuzzDecodeSubmit feeds the HTTP submission decoder arbitrary bytes.
// The framing inside the profile payload is internal/frame's to fuzz
// (FuzzFrame) and the payload's decoding profile's (FuzzLoadDB); the
// contract here is the JSON wrapper's: every rejection is typed
// (errBadSubmit for wrapper damage, profile.ErrCorrupt/ErrTruncated/
// ErrVersionSkew passed through for payload damage), never a panic, a
// body cannot smuggle in another record kind, and an accepted submission
// is immediately usable for queries and loss accounting.
//
// It is also the differential test of the record readers: read as a
// submission body and as a WAL record, every input decodes through the
// one-pass reader (readCanonical, decodeRecordHead) exactly as through
// encoding/json — same record, same profile bytes, same database — or is
// refused with the same error class by both; and an accepted
// submission's admit record is json.Marshal's.
func FuzzDecodeSubmit(f *testing.F) {
	db := testShard(7, 25)
	valid, err := EncodeSubmit("compress/s003", db)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	var rec record
	if err := json.Unmarshal(valid, &rec); err != nil {
		f.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(rec.Profile)
	noShard, _ := json.Marshal(record{Profile: rec.Profile})
	f.Add(noShard)
	adopt, _ := json.Marshal(record{Kind: walKindAdopt, Shard: "x", From: "c1", Shards: []string{"x"}})
	f.Add(adopt)
	handoff, _ := encodeHandoff("c0", db.Save, []string{"x"})
	f.Add(handoff)
	admit, _ := encodeAdmitRecord(nil, Submission{Shard: "compress/s003", DB: db})
	f.Add(admit)
	f.Add([]byte(`{"shard":"x","profile":""}`))
	f.Add([]byte(`{"shard":"x","profile":"AAAA"}`))
	f.Add([]byte(`{"shard":123}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	// Non-canonical spellings of the valid body, each for encoding/json.
	for _, body := range []string{
		`{ "shard": "compress/s003", "profile": "` + b64 + `" }`,
		`{"shard":"compress/s003","profile":"` + b64 + "\"}\n",
		`{"profile":"` + b64 + `","shard":"compress/s003"}`,
		`{"Shard":"compress/s003","PROFILE":"` + b64 + `"}`,
		`{"shard":"compress\/s003","profile":"` + b64 + `"}`,
		`{"shard":"compress/s003","profile":"` + fmt.Sprintf(`\u%04x`, b64[0]) + b64[1:] + `"}`,
		`{"shard":"compress/s003","profile":"` + b64 + `","profile":"AAAA"}`,
		`{"shard":"c\u003c","profile":"` + b64 + `"}`,
		`{"kind":"handoff","shard":"compress/s003","profile":"` + b64 + `"}`,
		`{"kind":"admit","shard":"compress/s003","profile":"` + b64 + `","key":"k"}`,
	} {
		f.Add([]byte(body))
	}
	// A valid body whose base64 holds a '/' (the shard id holds one),
	// every '/' spelled `\/`.
	for samples := 25; samples < 200; samples++ {
		body, _ := EncodeSubmit("compress/s003", testShard(7, samples))
		if bytes.Count(body, []byte("/")) > 1 {
			f.Add(bytes.ReplaceAll(body, []byte("/"), []byte(`\/`)))
			break
		}
	}
	// Raw CR and LF inside the span: base64's decoders skip them, JSON
	// forbids them in a string, so both readers must refuse the body.
	for _, rec := range [][]byte{valid, admit} {
		for _, cut := range []string{"\n", "\r", "\r\n", "\n\n\n\n"} {
			f.Add(breakSpan(rec, cut))
		}
	}
	// Bytes after the envelope, and base64 whose padding bits are not
	// zero (accepted by json's decoder, refused by a strict one).
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for _, extra := range []string{"", "t", "tt", "ttt"} {
		for _, samples := range []int{25, 26, 27} {
			body, _ := json.Marshal(record{Shard: "x", Profile: append(saveBytes(f, testShard(7, samples)), extra...)})
			f.Add(body)
			if i := bytes.IndexByte(body, '='); i > 0 {
				loose := bytes.Clone(body)
				loose[i-1] = alphabet[strings.IndexByte(alphabet, loose[i-1])|1]
				f.Add(loose)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsJSON(t, data, walKindAdmit, errBadSubmit)
		sameAsJSON(t, data, "", errBadWALRecord)
		sameHeadAsJSON(t, data)

		got, err := DecodeSubmit(data)
		if err != nil {
			if !errors.Is(err, errBadSubmit) &&
				!errors.Is(err, profile.ErrCorrupt) &&
				!errors.Is(err, profile.ErrTruncated) &&
				!errors.Is(err, profile.ErrVersionSkew) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted: the submission must be queryable and accountable.
		if got.Shard == "" || got.DB == nil {
			t.Fatalf("accepted submission incomplete: %+v", got)
		}
		_ = got.Captured()
		for _, pc := range got.DB.PCs() {
			got.DB.EstimatedCount(pc)
		}
		_ = got.DB.Report(nil, 10)
		// Its WAL record, spliced from the body or encoded, is the one
		// json.Marshal writes around the verified envelope.
		want, _ := json.Marshal(record{Kind: walKindAdmit, Shard: got.Shard, Profile: got.wire})
		if rec, err := encodeAdmitRecord(nil, got); err != nil || !bytes.Equal(rec, want) {
			t.Fatalf("admit record %q (%v), want %q", rec, err, want)
		}
	})
}

// breakSpan inserts cut at the middle of the base64 span of a record
// whose profile is its last field.
func breakSpan(rec []byte, cut string) []byte {
	i := bytes.Index(rec, []byte(`"profile":"`)) + len(`"profile":"`)
	mid := i + (len(rec)-2-i)/2
	return slices.Concat(rec[:mid], []byte(cut), rec[mid:])
}

// errClass names which typed failure err is, "" for none.
func errClass(err error, bad error) string {
	for _, c := range []error{bad, profile.ErrCorrupt, profile.ErrTruncated, profile.ErrVersionSkew} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return ""
}

// sameAsJSON decodes data as a record of kind through decodeRecord and
// through encoding/json alone, and requires the same outcome.
func sameAsJSON(t *testing.T, data []byte, kind string, bad error) {
	t.Helper()
	got, gotDB, b64, gotErr := decodeRecord(data, kind, "fuzz", bad)
	var want record
	var wantDB *profile.DB
	wantErr := json.Unmarshal(data, &want)
	if wantErr != nil {
		wantErr = fmt.Errorf("%v: %w", wantErr, bad)
	} else {
		want, wantDB, wantErr = loadRecord(want, kind, "fuzz", bad)
	}
	if g, w := errClass(gotErr, bad), errClass(wantErr, bad); g != w {
		t.Fatalf("kind %q: one-pass reader fails with %q (%v), encoding/json with %q (%v)", kind, g, gotErr, w, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Kind != want.Kind || got.Shard != want.Shard || got.From != want.From || got.Key != want.Key ||
		!bytes.Equal(got.Profile, want.Profile) || !slices.Equal(got.Shards, want.Shards) {
		t.Fatalf("kind %q: one-pass reader read %+v, encoding/json %+v", kind, got, want)
	}
	if (gotDB == nil) != (wantDB == nil) || gotDB != nil && !bytes.Equal(saveBytes(t, gotDB), saveBytes(t, wantDB)) {
		t.Fatalf("kind %q: the two readers loaded different databases", kind)
	}
	if b64 != nil && base64.StdEncoding.EncodeToString(got.Profile) != string(b64) {
		t.Fatalf("kind %q: kept base64 span %q does not encode the verified envelope", kind, b64)
	}
}

// sameHeadAsJSON requires decodeRecordHead to read data as
// json.Unmarshal reads it into a recordHead.
func sameHeadAsJSON(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := decodeRecordHead(data)
	var want recordHead
	wantErr := json.Unmarshal(data, &want)
	if (gotErr != nil) != (wantErr != nil) || gotErr == nil && got != want {
		t.Fatalf("record head %+v (%v), encoding/json %+v (%v)", got, gotErr, want, wantErr)
	}
	if gotErr != nil && !errors.Is(gotErr, errBadWALRecord) {
		t.Fatalf("untyped record head error: %v", gotErr)
	}
}

// TestDecodeSubmitRoundTrip pins the happy path: what EncodeSubmit
// writes, DecodeSubmit reads back with identical totals.
func TestDecodeSubmitRoundTrip(t *testing.T) {
	db := testShard(3, 40)
	db.RecordLoss(5)
	body, err := EncodeSubmit("li/s001", db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != "li/s001" {
		t.Fatalf("shard %q", got.Shard)
	}
	if got.DB.Samples() != db.Samples() || got.DB.Lost() != db.Lost() {
		t.Fatalf("round-trip totals %d/%d, want %d/%d",
			got.DB.Samples(), got.DB.Lost(), db.Samples(), db.Lost())
	}
	if got.Captured() != db.Samples()+db.Lost() {
		t.Fatalf("captured %d", got.Captured())
	}
	var buf bytes.Buffer
	if err := got.DB.Save(&buf); err != nil {
		t.Fatalf("decoded database not re-saveable: %v", err)
	}
}
