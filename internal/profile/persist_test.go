package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
	"profileme/internal/stats"
)

// headerBytes is where the payload starts in a saved image: the frame
// header plus the u64 payload length.
const headerBytes = frame.HeaderLen + 8

// saveImage returns a freshly saved database image with addrs, a pair
// metric, and recorded loss — every serialized feature exercised.
func saveImage(t *testing.T) ([]byte, *DB) {
	t.Helper()
	db := NewDB(100, 80, 4)
	db.RetainAddrs = 4
	db.RegisterPairMetric("near", RetiredWithin(10))
	r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
	r.Addr, r.AddrValid = 0xbeef, true
	db.Add(core.Sample{First: r})
	db.Add(pairSample(0x40, 0x44, 1))
	db.RecordLoss(7)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), db
}

func TestLoadTruncatedTyped(t *testing.T) {
	img, _ := saveImage(t)
	// Cut at every structurally interesting point: inside the header,
	// inside the payload, inside the trailing checksum.
	for _, cut := range []int{0, 3, headerBytes - 1, headerBytes,
		headerBytes + 5, len(img) / 2, len(img) - 4, len(img) - 1} {
		_, err := LoadDB(bytes.NewReader(img[:cut]))
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: not typed ErrTruncated: %v", cut, err)
		}
	}
}

func TestLoadBitFlipTyped(t *testing.T) {
	img, _ := saveImage(t)
	// Flip one bit in the payload: the checksum must catch it.
	for _, at := range []int{headerBytes, headerBytes + 7, len(img) - 8} {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0x10
		_, err := LoadDB(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at %d accepted", at)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: not typed ErrCorrupt: %v", at, err)
		}
	}
	// Damaged magic is corruption too.
	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	if _, err := LoadDB(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestLoadVersionSkewTyped(t *testing.T) {
	img, _ := saveImage(t)
	// A future format version.
	bad := append([]byte(nil), img...)
	bad[4] = 9
	_, err := LoadDB(bytes.NewReader(bad))
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("future version: %v", err)
	}

	// The version is a u32, compared whole: a v1 image with a bit set in
	// the version's upper bytes is skew, not v1.
	v1 := gobImage(t, dbImage{S: 100, W: 80, C: 4})
	if _, err := LoadDB(bytes.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	for at := 5; at < 8; at++ {
		bad := bytes.Clone(v1)
		bad[at] ^= 0x01
		if _, err := LoadDB(bytes.NewReader(bad)); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("v1 with byte %d flipped: %v, want ErrVersionSkew", at, err)
		}
	}

	// A pre-envelope database: naked gob, as the original Save wrote.
	legacy := dbImage{S: 100, W: 80, C: 4, Samples: 3}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDB(&buf)
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("legacy gob not reported as version skew: %v", err)
	}
}

func TestLoadAbsurdLengthRejected(t *testing.T) {
	img, _ := saveImage(t)
	bad := append([]byte(nil), img...)
	for i := 8; i < 16; i++ {
		bad[i] = 0xff // declared payload ~2^64
	}
	_, err := LoadDB(bytes.NewReader(bad))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: %v", err)
	}
}

func TestSaveLoadCarriesLossAccounting(t *testing.T) {
	img, db := saveImage(t)
	got, err := LoadDB(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lost() != db.Lost() || got.LossRate() != db.LossRate() {
		t.Fatalf("loss accounting lost: %d/%v vs %d/%v",
			got.Lost(), got.LossRate(), db.Lost(), db.LossRate())
	}
	if got.EstimatedCount(0x40) != db.EstimatedCount(0x40) {
		t.Fatal("loss-corrected estimate changed across save/load")
	}
}

// duplicatePCImage lists PC 0x40 twice, with rows of 10 and 20 samples.
func duplicatePCImage() dbImage {
	return dbImage{S: 100, W: 80, C: 4, Samples: 30,
		Accums: []PCAccum{{PC: 0x40, Samples: 10}, {PC: 0x40, Samples: 20}}}
}

// envelope frames payload as a PMDB of the given version.
func envelope(t testing.TB, version uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.WriteEnvelope(&buf, dbMagic, version, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobImage is img as the version-1 writer framed it.
func gobImage(t testing.TB, img dbImage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	return envelope(t, dbVersionGob, buf.Bytes())
}

// rowImage is db saved with accs as its row list, in that order — what
// no Save of a real database writes when accs repeats or reorders PCs.
func rowImage(t testing.TB, db *DB, accs ...*PCAccum) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.save(&buf, accs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadDuplicatePCCorrupt: an image that lists a PC twice is damage,
// in either version. It used to load with the second row silently
// replacing the first — a database claiming 30 samples whose only row
// held 20. Version 2 stores PCs as ascending deltas, so a repeated PC is
// a zero delta and a descending one wraps.
func TestLoadDuplicatePCCorrupt(t *testing.T) {
	db := NewDB(100, 80, 4)
	lo, hi := &PCAccum{PC: 0x40, Samples: 10}, &PCAccum{PC: 0x44, Samples: 20}
	for what, img := range map[string][]byte{
		"v1 repeated":   gobImage(t, duplicatePCImage()),
		"v2 repeated":   rowImage(t, db, lo, lo),
		"v2 descending": rowImage(t, db, hi, lo),
	} {
		got, err := LoadDB(bytes.NewReader(img))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err %v, want ErrCorrupt", what, err)
		}
		if got != nil {
			t.Fatalf("%s: loaded as %d samples over %d rows", what, got.Samples(), len(got.PCs()))
		}
	}
}

// TestLoadRejectsMisfitRows: a CRC-valid image whose row carries pair
// metrics other than the database's metric set, or more addresses than
// it retains, is ErrCorrupt in both versions. Such rows used to load and
// pass admission; merging two of them that gave one PC pair-metric
// slices of lengths 1 and 3 panicked the merge with an index out of
// range.
func TestLoadRejectsMisfitRows(t *testing.T) {
	metrics := func(n int) []uint64 { return make([]uint64, n) }
	for _, c := range []struct {
		what    string
		names   []string
		retain  int
		acc     PCAccum
		corrupt bool
	}{
		{"no metrics, 1 pair metric", nil, 0, PCAccum{PC: 0x40, PairMetrics: metrics(1)}, true},
		{"no metrics, 3 pair metrics", nil, 0, PCAccum{PC: 0x40, PairMetrics: metrics(3)}, true},
		{"2 metrics, 1 pair metric", []string{"a", "b"}, 0, PCAccum{PC: 0x40, PairMetrics: metrics(1)}, true},
		{"2 metrics, 2 pair metrics", []string{"a", "b"}, 0, PCAccum{PC: 0x40, PairMetrics: metrics(2)}, false},
		{"2 metrics, none", []string{"a", "b"}, 0, PCAccum{PC: 0x40}, false},
		{"3 addresses, 2 retained", nil, 2, PCAccum{PC: 0x40, Addrs: []uint64{1, 2, 3}}, true},
		{"2 addresses, 2 retained", nil, 2, PCAccum{PC: 0x40, Addrs: []uint64{1, 2}}, false},
	} {
		db := NewDB(100, 80, 4)
		db.RetainAddrs = c.retain
		db.metricNames, db.metricFns = c.names, make([]OverlapFunc, len(c.names))
		acc := c.acc
		v1 := gobImage(t, dbImage{S: 100, W: 80, C: 4, TNear: db.TNear, RetainAddrs: c.retain,
			MetricNames: c.names, Accums: []PCAccum{acc}})
		for version, img := range map[string][]byte{"v1": v1, "v2": rowImage(t, db, &acc)} {
			_, err := LoadDB(bytes.NewReader(img))
			if c.corrupt && !errors.Is(err, ErrCorrupt) || !c.corrupt && err != nil {
				t.Errorf("%s, %s: err %v, want corrupt=%v", c.what, version, err, c.corrupt)
			}
		}
	}
}

// TestLoadRowBounds: the v2 reader's structural checks. A row count the
// bytes present cannot hold fails before the rows are allocated, a PC
// delta that overflows is damage, and so are bytes after the last row.
func TestLoadRowBounds(t *testing.T) {
	db := NewDB(100, 80, 4)
	head := db.appendHead(nil, 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDB(bytes.NewReader(envelope(t, dbVersion, head)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("2^40 rows declared in %d bytes: %v", len(head), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a declared row count allocated %d bytes", grew)
	}

	top := &PCAccum{PC: math.MaxUint64}
	overflow := rowImage(t, db, top, &PCAccum{PC: 0x40})
	if _, err := LoadDB(bytes.NewReader(overflow)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a PC delta past 2^64: %v", err)
	}

	good := rowImage(t, db, &PCAccum{PC: 0x40}, top)
	if _, err := LoadDB(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	payload := good[headerBytes : len(good)-4]
	trailing := envelope(t, dbVersion, append(bytes.Clone(payload), 0))
	if _, err := LoadDB(bytes.NewReader(trailing)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a byte after the last row: %v", err)
	}
}

// randomDB draws a database over every field the image carries: extreme
// counters, negative latency sums, PC 0 and 2^64-1, pair metrics and
// retained addresses.
func randomDB(rng *stats.RNG) *DB {
	db := NewDB(float64(rng.Intn(1<<12)), rng.Intn(200), 1+rng.Intn(8))
	db.TNear = int64(rng.Intn(100)) - 10
	db.RetainAddrs = rng.Intn(4)
	u64 := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		case 2:
			return uint64(rng.Intn(200))
		}
		return rng.Uint64()
	}
	i64 := func() int64 { return int64(u64()) }
	db.samples, db.pairs, db.lost, db.corruptRejected = u64(), u64(), u64(), u64()
	for i := rng.Intn(3); i > 0; i-- {
		db.metricNames = append(db.metricNames, fmt.Sprintf("m%d", rng.Intn(1000)))
		db.metricFns = append(db.metricFns, nil)
	}
	for i := rng.Intn(40); i > 0; i-- {
		pc := u64()
		a := &PCAccum{PC: pc, Samples: u64(), MemLatSum: i64(), MemLatCount: u64(),
			InProgressSum: i64(), InProgressCount: u64(), UsefulOverlap: u64(),
			PairSamples: u64(), RetiredNear: u64()}
		for j := range a.Events {
			a.Events[j] = u64()
		}
		for j := range a.LatSum {
			a.LatSum[j], a.LatCount[j] = i64(), u64()
		}
		if len(db.metricNames) > 0 && rng.Bool(0.5) {
			for range db.metricNames {
				a.PairMetrics = append(a.PairMetrics, u64())
			}
		}
		for j := rng.Intn(db.RetainAddrs + 1); j > 0; j-- {
			a.Addrs = append(a.Addrs, u64())
		}
		db.byPC[pc] = a
	}
	return db
}

// TestSaveLoadRoundTripProperty: LoadDB(Save(db)) deep-equals db, and
// Save is deterministic — twice, and again after the round trip.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(34)
	for i := 0; i < 300; i++ {
		db := randomDB(rng)
		var first, second, again bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatal(err)
		}
		if err := db.Save(&second); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDB(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("db %d: %v", i, err)
		}
		// A decoded database also keeps its rows as its walk order
		// (DB.rows): exactly its accumulators, in ascending PC order.
		// db was built in process and has none, so the order is checked
		// here and left out of the comparison.
		if len(got.rows) != len(got.byPC) {
			t.Fatalf("db %d: %d rows for %d PCs", i, len(got.rows), len(got.byPC))
		}
		for j := range got.rows {
			if a := &got.rows[j]; got.byPC[a.PC] != a || j > 0 && a.PC <= got.rows[j-1].PC {
				t.Fatalf("db %d: row %d (PC %#x) is not the PC index's accumulator in ascending order", i, j, a.PC)
			}
		}
		got.rows = nil
		if !reflect.DeepEqual(got, db) {
			t.Fatalf("db %d: round trip changed it:\n got %+v\nwant %+v", i, got, db)
		}
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) || !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("db %d: Save is not deterministic", i)
		}
	}
}

// TestMergeDoesNotAliasSource is the regression test for the Addrs slice
// sharing hazard: after a merge, mutating the source database's retained
// addresses must not change the destination's (and vice versa).
func TestMergeDoesNotAliasSource(t *testing.T) {
	mk := func(addr uint64) *DB {
		db := NewDB(100, 80, 4)
		db.RetainAddrs = 8
		r := rec(0x40, true, 0, 2, 3, 5, 9, 12)
		r.Addr, r.AddrValid = addr, true
		db.Add(core.Sample{First: r})
		return db
	}
	dst, src := mk(0x100), mk(0x200)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x100, 0x200}
	got := dst.Get(0x40).Addrs
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("merged addrs = %v, want %v", got, want)
	}

	src.Get(0x40).Addrs[0] = 0xdead // mutate source after merge
	if got := dst.Get(0x40).Addrs; got[1] != 0x200 {
		t.Fatalf("destination aliases source: %v", got)
	}
	dst.Get(0x40).Addrs[1] = 0xbeef // and the other direction
	if got := src.Get(0x40).Addrs; got[0] != 0xdead {
		t.Fatalf("source aliases destination: %v", got)
	}
}

func TestLossCorrectedEstimators(t *testing.T) {
	db := NewDB(10, 20, 4)
	for i := 0; i < 30; i++ {
		db.Add(pairSample(0x10, 0x20, 1))
	}
	base := db.EstimatedCount(0x10)
	_, baseTotal, baseUseful, _ := db.WastedSlots(0x10)
	baseIPC, _ := db.NeighborhoodIPC(0x10)

	// 30 delivered + 10 lost => a 25% loss rate, 4/3 correction.
	db.RecordLoss(10)
	if got := db.LossRate(); got != 0.25 {
		t.Fatalf("LossRate = %v, want 0.25", got)
	}
	if got := db.EstimatedCount(0x10); got != base*4/3 {
		t.Fatalf("EstimatedCount = %v, want %v", got, base*4/3)
	}
	if got := db.EstimatedEventCount(0x10, core.EvRetired); got != base*4/3 {
		t.Fatalf("EstimatedEventCount = %v, want %v", got, base*4/3)
	}
	_, total, useful, _ := db.WastedSlots(0x10)
	if total != baseTotal*4/3 || useful != baseUseful*4/3 {
		t.Fatalf("WastedSlots not corrected: %v/%v vs %v/%v", total, useful, baseTotal, baseUseful)
	}
	// Pure ratios are loss-invariant.
	if ipc, _ := db.NeighborhoodIPC(0x10); ipc != baseIPC {
		t.Fatalf("NeighborhoodIPC changed under loss: %v vs %v", ipc, baseIPC)
	}
}

func TestAddRejectsCorruptRecords(t *testing.T) {
	db := NewDB(10, 20, 4)
	good := rec(0x10, true, 0, 1, 2, 3, 4, 5)

	undefinedEvent := good
	undefinedEvent.Events |= core.Event(1) << 30

	badTrap := good
	badTrap.Trap = core.TrapReason(200)

	timeWarp := good
	timeWarp.StageCycle[core.StageRetire] = 1 // retires before issue

	hugeCycle := good
	hugeCycle.StageCycle[core.StageIssue] = 1 << 55

	badHistory := good
	badHistory.HistoryBits = 200

	loadBeforeIssue := good
	loadBeforeIssue.LoadComplete = 1 // issue at 3

	for i, r := range []core.Record{undefinedEvent, badTrap, timeWarp, hugeCycle, badHistory, loadBeforeIssue} {
		db.Add(core.Sample{First: r})
		if db.Samples() != 0 {
			t.Fatalf("corrupt record %d accepted", i)
		}
	}
	if db.CorruptRejected() != 6 {
		t.Fatalf("CorruptRejected = %d, want 6", db.CorruptRejected())
	}
	// Rejected samples count as losses for the correction.
	if db.Lost() != 6 {
		t.Fatalf("Lost = %d, want 6", db.Lost())
	}

	// A corrupt partner poisons the whole pair.
	s := pairSample(0x10, 0x20, 1)
	s.Second.Trap = core.TrapReason(99)
	db.Add(s)
	if db.Samples() != 0 || db.CorruptRejected() != 7 {
		t.Fatalf("corrupt pair accepted: samples=%d rejected=%d", db.Samples(), db.CorruptRejected())
	}

	db.Add(core.Sample{First: good})
	if db.Samples() != 1 {
		t.Fatal("sane record rejected")
	}
}
