package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
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

// TestLoadDuplicatePCCorrupt: an image that lists a PC twice is damage.
// It used to load with the second row silently replacing the first — a
// database claiming 30 samples whose only row held 20.
func TestLoadDuplicatePCCorrupt(t *testing.T) {
	img := duplicatePCImage()
	var buf bytes.Buffer
	if err := frame.WriteEnvelope(&buf, dbMagic, dbVersion, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&img)
	}); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDB(&buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a PC listed twice: err %v, want ErrCorrupt", err)
	}
	if db != nil {
		t.Fatalf("a PC listed twice loaded as %d samples over %d rows", db.Samples(), len(db.PCs()))
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
