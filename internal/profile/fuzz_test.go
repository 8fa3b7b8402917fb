package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"profileme/internal/core"
)

// FuzzLoadDB feeds LoadDB arbitrary payloads inside a well-formed
// envelope, and the same bytes bare. What damaged framing decodes to is
// internal/frame's contract (FuzzFrame); the contract here is the
// payload's: every rejection is one of the three typed errors (never a
// panic), a payload the envelope vouches for but the decoder or the
// sanity checks refuse is ErrCorrupt, a bare PMDB header of any version
// but the current one is ErrVersionSkew, and an accepted database is
// immediately usable, saves to an image that loads, and merges
// (mergesIntoAggregate) — LoadDB is the gate a submitted shard passes
// before the collector merges it.
func FuzzLoadDB(f *testing.F) {
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 2
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Addr, r.AddrValid = 0xbeef, true
	db.Add(core.Sample{First: r})
	db.Add(pairSample(0x40, 0x48, 1))
	db.RecordLoss(3)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()[headerBytes : buf.Len()-4] // the row table alone

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("not a profile database at all"))
	f.Add(append(bytes.Clone(valid), 0)) // a byte after the last row
	// Row tables the structural checks, not the varint reader, must
	// refuse: a repeated PC, a row with pair metrics, a row keeping more
	// addresses than the database retains, and an impossible
	// configuration (a negative window).
	lo := &PCAccum{PC: 0x40}
	negative := NewDB(100, 80, 4)
	negative.W = -80
	misfit := NewDB(100, 80, 4)
	misfit.addrs = [][]uint64{{1, 2, 3}}
	for _, img := range [][]byte{
		rowImage(f, NewDB(100, 80, 4), lo, lo),
		pairMetricImage(f, 0, nil, 3),
		rowImage(f, misfit, lo),
		rowImage(f, negative, lo),
	} {
		f.Add(img[headerBytes : len(img)-4])
	}
	// A whole version-1 image: bare, it is version skew.
	f.Add(envelope(f, 1, valid))
	// A header naming a pair metric.
	named := pairMetricImage(f, 0, []string{"near"}, 0)
	f.Add(named[headerBytes : len(named)-4])

	f.Fuzz(func(t *testing.T, payload []byte) {
		img := envelope(t, dbVersion, payload)
		got, err := LoadDB(bytes.NewReader(img))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("intact envelope, bad payload: want ErrCorrupt, got %v", err)
		}
		// Bare, the payload is a foreign file or damage — or, when it
		// starts with a PMDB header of another version, version skew.
		_, err = LoadDB(bytes.NewReader(payload))
		if err == nil || (!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersionSkew)) {
			t.Fatalf("bare payload: want a typed error, got %v", err)
		}
		if len(payload) >= 8 && string(payload[:4]) == dbMagic &&
			binary.LittleEndian.Uint32(payload[4:8]) != dbVersion && !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("bare PMDB v%d: want ErrVersionSkew, got %v", binary.LittleEndian.Uint32(payload[4:8]), err)
		}
		if got == nil {
			return
		}
		// Accepted: the database must answer queries without blowing up.
		for _, pc := range got.PCs() {
			got.EstimatedCount(pc)
		}
		_ = got.Report(nil, 20)
		_ = got.LossRate()
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDB(&again); err != nil {
			t.Fatalf("an accepted database does not load back: %v", err)
		}
		mergesIntoAggregate(t, got)
	})
}

// mergesIntoAggregate is the submit half of the admit-merge contract: a
// shard LoadDB accepted merges through SafeDB.Merge, without a panic,
// into an aggregate of the same configuration that already holds every
// one of its PCs with other address and event shapes; the
// aggregate's Samples+Lost grow by exactly the shard's, and every row it
// holds still fits it, so the next merge is as safe as this one.
func mergesIntoAggregate(t *testing.T, shard *DB) {
	t.Helper()
	agg := NewDB(shard.S, shard.W, shard.C)
	// One address more than the shard retains, unless that overflows.
	agg.TNear, agg.RetainAddrs = shard.TNear, max(shard.RetainAddrs, shard.RetainAddrs+1)
	for _, pc := range shard.PCs() {
		slot, a := agg.slotOf(pc)
		a.Samples, a.Events[0] = 1, 1
		agg.samples++
		if len(shard.Addrs(pc)) == 0 {
			agg.keepAddrs(slot, pc)
		}
	}
	agg.RecordLoss(2)
	sdb := NewSafeDBWith(agg, SketchConfig{})
	before := sdb.CountersSnapshot()
	captured := shard.Samples() + shard.Lost()
	if err := sdb.Merge(shard); err != nil {
		t.Fatalf("an accepted shard does not merge into an aggregate of its configuration: %v", err)
	}
	if after := sdb.CountersSnapshot(); after.Samples+after.Lost != before.Samples+before.Lost+captured {
		t.Fatalf("Samples+Lost %d+%d -> %d+%d, want growth by the shard's %d",
			before.Samples, before.Lost, after.Samples, after.Lost, captured)
	}
	for _, pc := range agg.PCs() {
		if kept := len(agg.Addrs(pc)); kept > agg.RetainAddrs {
			t.Fatalf("merged row %#x holds %d addresses; the aggregate retains %d", pc, kept, agg.RetainAddrs)
		}
	}
}
