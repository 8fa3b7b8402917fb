package frame_test

import (
	"bytes"
	"os"
	"path/filepath"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/profile"
	"profileme/internal/traffic"
	"profileme/internal/wal"
)

// Fixture file names under testdata/, one per on-disk format.
const (
	fixPMDB = "small-v2.pmdb"
	fixPMCK = "small-ck2.pmck"
	fixPMWS = "two-records.pmws"
	fixPMTF = "two-records.pmtf"

	// walSegment1 is the file name of a log's first segment.
	walSegment1 = "wal-0000000000000001.log"
)

// The record payloads inside the PMWS and PMTF fixtures.
var (
	walPayloads = [][]byte{[]byte("alpha"), bytes.Repeat([]byte{0xab}, 300)}
	traceRecs   = []traffic.Record{
		{OffsetUS: 10, Cohort: "steady", Shard: "steady/s000", Body: []byte(`{"shard":"steady/s000"}`)},
		{OffsetUS: 2500, Shard: "live/s001", Body: bytes.Repeat([]byte{0x5a}, 100)},
	}
)

// fixtureDB is the small database inside the PMDB and PMCK fixtures.
func fixtureDB() *profile.DB {
	db := profile.NewDB(100, 80, 4)
	db.RetainAddrs = 2
	for i := 0; i < 6; i++ {
		r := core.Record{PC: 0x400 + 8*uint64(i%3), LoadComplete: -1, Events: core.EvRetired}
		for j := range r.StageCycle {
			r.StageCycle[j] = -1
		}
		r.StageCycle[core.StageFetch] = int64(i)
		r.StageCycle[core.StageRetire] = int64(i + 9)
		if i%2 == 0 {
			r.Addr, r.AddrValid = 0xbeef00+uint64(i), true
		}
		db.Add(core.Sample{First: r})
	}
	db.RecordLoss(3)
	return db
}

// buildFixtures writes one instance of each format through the
// packages' own writers, scratch files under dir.
func buildFixtures(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}

	var pmdb bytes.Buffer
	if err := fixtureDB().Save(&pmdb); err != nil {
		return nil, err
	}
	out[fixPMDB] = pmdb.Bytes()

	ck := &ingest.Checkpoint{
		Profile:         pmdb.Bytes(),
		Applied:         []string{"a/s000", "a/s001"},
		RefusedLoss:     map[string]uint64{"a/s002": 7},
		HandoffFrom:     []ingest.Provenance{{Shard: "a/s003", From: "c1"}},
		AppliedHandoffs: []string{"1:16"},
		HandoffKeys:     map[string]uint64{"00112233445566778899aabbccddeeff": 9},
		Barrier:         wal.Pos{Seg: 1, Off: 16},
	}
	var pmck bytes.Buffer
	if err := ingest.WriteCheckpoint(&pmck, ck); err != nil {
		return nil, err
	}
	out[fixPMCK] = pmck.Bytes()

	walDir := filepath.Join(dir, "wal")
	l, _, err := wal.Open(wal.Config{Dir: walDir}, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range walPayloads {
		if _, err := l.Append(p); err != nil {
			return nil, err
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	if out[fixPMWS], err = os.ReadFile(filepath.Join(walDir, walSegment1)); err != nil {
		return nil, err
	}

	var pmtf bytes.Buffer
	tw, err := traffic.NewWriter(&pmtf, traffic.Meta{Source: "golden"})
	if err != nil {
		return nil, err
	}
	for _, rec := range traceRecs {
		if err := tw.Append(rec); err != nil {
			return nil, err
		}
	}
	out[fixPMTF] = pmtf.Bytes()
	return out, nil
}
