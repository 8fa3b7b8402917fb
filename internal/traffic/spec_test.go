package traffic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// testSpec is a small diurnal+burst two-cohort spec; scales are tiny so
// Materialize stays test-fast.
func testSpec() *Spec {
	return &Spec{
		Version:   SpecVersion,
		Seed:      42,
		DurationS: 60,
		Interval:  64,
		Cohorts: []Cohort{
			{
				Name: "steady", Bench: "compress", Scale: 20000, Shards: 4,
				BaseRate: 0.5,
				Diurnal:  &Diurnal{Amplitude: 0.8, PeriodS: 60},
			},
			{
				Name: "bursty", Bench: "m88ksim", Scale: 20000, Shards: 3,
				BaseRate: 0.2,
				Bursts:   []Burst{{AtS: 20, DurS: 10, RatePerS: 3}},
			},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	mutate := func(f func(*Spec)) *Spec {
		sp := testSpec()
		f(sp)
		return sp
	}
	bad := []struct {
		name string
		sp   *Spec
	}{
		{"version", mutate(func(sp *Spec) { sp.Version = 99 })},
		{"duration", mutate(func(sp *Spec) { sp.DurationS = 0 })},
		{"interval", mutate(func(sp *Spec) { sp.Interval = -1 })},
		{"no-cohorts", mutate(func(sp *Spec) { sp.Cohorts = nil })},
		{"dup-name", mutate(func(sp *Spec) { sp.Cohorts[1].Name = "steady" })},
		{"bench", mutate(func(sp *Spec) { sp.Cohorts[0].Bench = "nope" })},
		{"scale", mutate(func(sp *Spec) { sp.Cohorts[0].Scale = 0 })},
		{"shards", mutate(func(sp *Spec) { sp.Cohorts[0].Shards = 0 })},
		{"amplitude", mutate(func(sp *Spec) { sp.Cohorts[0].Diurnal.Amplitude = 1.5 })},
		{"burst", mutate(func(sp *Spec) { sp.Cohorts[1].Bursts[0].DurS = 0 })},
		{"no-load", mutate(func(sp *Spec) {
			sp.Cohorts[1].BaseRate = 0
			sp.Cohorts[1].Bursts = nil
		})},
	}
	for _, tc := range bad {
		if err := tc.sp.validate(); !errors.Is(err, errBadSpec) {
			t.Errorf("%s: want ErrBadSpec, got %v", tc.name, err)
		}
	}
	if err := testSpec().validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"version":1,"seed":1,"duration_s":1,"interval":64,
		"cohorts":[{"name":"a","bench":"compress","scale":1000,"shards":1,"base_rte":1}]}`))
	if !errors.Is(err, errBadSpec) {
		t.Fatalf("typo'd field: want ErrBadSpec, got %v", err)
	}
}

func TestScheduleDeterministicAndShaped(t *testing.T) {
	sp := testSpec()
	s1, err := sp.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := testSpec().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same spec produced different schedules")
	}
	if len(s1) < 20 {
		t.Fatalf("only %d arrivals in 60 modeled seconds", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].OffsetUS < s1[i-1].OffsetUS {
			t.Fatal("schedule not sorted by offset")
		}
	}

	// The burst window [20s, 30s) must be visibly denser for the bursty
	// cohort than an equal-length quiet window.
	inWindow := func(cohort string, lo, hi int64) int {
		n := 0
		for _, a := range s1 {
			if a.Cohort == cohort && a.OffsetUS >= lo && a.OffsetUS < hi {
				n++
			}
		}
		return n
	}
	burst := inWindow("bursty", 20_000_000, 30_000_000)
	quiet := inWindow("bursty", 40_000_000, 50_000_000)
	if burst <= quiet+3 {
		t.Fatalf("burst window %d arrivals vs quiet %d: burst invisible", burst, quiet)
	}

	// A different seed must move the arrivals.
	other := testSpec()
	other.Seed = 43
	s3, err := other.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seed produced the identical schedule")
	}
}

func TestMaterializeDeterministicPayloads(t *testing.T) {
	sp := testSpec()
	// Shrink: payload determinism needs only one cohort and few shards.
	sp.Cohorts = sp.Cohorts[:1]
	sp.Cohorts[0].Shards = 2
	p1, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	pool1, pool2 := p1["steady"], p2["steady"]
	if len(pool1) != 2 || len(pool2) != 2 {
		t.Fatalf("pool sizes %d/%d", len(pool1), len(pool2))
	}
	for i := range pool1 {
		if pool1[i].Shard != pool2[i].Shard {
			t.Fatalf("shard id mismatch at %d", i)
		}
		if string(pool1[i].Body) != string(pool2[i].Body) {
			t.Fatalf("shard %s: payload bytes differ across materializations", pool1[i].Shard)
		}
		if pool1[i].Captured == 0 {
			t.Fatalf("shard %s captured nothing", pool1[i].Shard)
		}
	}
	// Distinct shards must carry distinct payloads (different data
	// seeds and sampling seeds).
	if string(pool1[0].Body) == string(pool1[1].Body) {
		t.Fatal("distinct shards produced identical payloads")
	}
}

// TestMaterializeAnyPoolWidth: Materialize's pools are a pure function of
// the spec, not of how many workers ran its shards. Cohorts of unequal
// cost — the heaviest first, so at width 4 later cells finish before
// earlier ones — are materialized at GOMAXPROCS 1 and 4, and every
// cohort key, pool order, shard id, body, saved image and captured count
// must agree.
func TestMaterializeAnyPoolWidth(t *testing.T) {
	sp := &Spec{
		Version: SpecVersion, Seed: 9, DurationS: 1, Interval: 64,
		Cohorts: []Cohort{
			{Name: "heavy", Bench: "compress", Scale: 40000, Shards: 3, BaseRate: 1},
			{Name: "mid", Bench: "li", Scale: 12000, Shards: 3, BaseRate: 1},
			{Name: "light", Bench: "m88ksim", Scale: 3000, Shards: 4, BaseRate: 1},
		},
	}
	type shard struct {
		ID, Body, Image string
		Captured        uint64
	}
	at := func(procs int) map[string][]shard {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		pools, err := sp.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]shard{}
		for name, pool := range pools {
			for _, p := range pool {
				var img bytes.Buffer
				if err := p.DB.Save(&img); err != nil {
					t.Fatal(err)
				}
				out[name] = append(out[name], shard{p.Shard, string(p.Body), img.String(), p.Captured})
			}
		}
		return out
	}
	seq, par := at(1), at(4)
	if len(seq) != len(sp.Cohorts) {
		t.Fatalf("%d pools for %d cohorts", len(seq), len(sp.Cohorts))
	}
	for _, c := range sp.Cohorts {
		if len(seq[c.Name]) != c.Shards {
			t.Fatalf("cohort %s: %d payloads, want %d", c.Name, len(seq[c.Name]), c.Shards)
		}
		for si, p := range seq[c.Name] {
			if want := fmt.Sprintf("%s/s%03d", c.Name, si); p.ID != want {
				t.Fatalf("cohort %s position %d holds %s, want %s", c.Name, si, p.ID, want)
			}
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("pools materialized at GOMAXPROCS 4 differ from those at GOMAXPROCS 1")
	}
}

// TestMaterializePinnedBytes pins the payload bodies of a two-cohort spec
// (one at the default buffer depth, one at 4) to the bodies recorded at
// the commit before buildShard became a runner.RunShard caller: a change
// to how a shard is made must not move a PMTF byte for a fixed seed. The
// digest is of those bodies with each profile in PMDB version 2: the
// recorded version-1 image, loaded and saved again.
func TestMaterializePinnedBytes(t *testing.T) {
	sp := testSpec()
	sp.Cohorts[1].BufferDepth = 4
	pools, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range sp.Cohorts {
		for _, p := range pools[c.Name] {
			h.Write(p.Body)
		}
	}
	const want = "d367c8289f93e652616c7be13c437fc48f15ceebca40afcf7063145a853b2a76"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("materialized payload bodies moved: sha256 %s, pinned %s", got, want)
	}
}
