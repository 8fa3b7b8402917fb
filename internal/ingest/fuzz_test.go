package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
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
func FuzzDecodeSubmit(f *testing.F) {
	valid, err := EncodeSubmit("compress/s003", testShard(7, 25))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	var rec record
	if err := json.Unmarshal(valid, &rec); err != nil {
		f.Fatal(err)
	}
	noShard, _ := json.Marshal(record{Profile: rec.Profile})
	f.Add(noShard)
	adopt, _ := json.Marshal(record{Kind: walKindAdopt, Shard: "x", From: "c1", Shards: []string{"x"}})
	f.Add(adopt)
	handoff, _ := EncodeHandoff("c0", testShard(7, 25).Save, []string{"x"})
	f.Add(handoff)
	f.Add([]byte(`{"shard":"x","profile":""}`))
	f.Add([]byte(`{"shard":"x","profile":"AAAA"}`))
	f.Add([]byte(`{"shard":123}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
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
	})
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
