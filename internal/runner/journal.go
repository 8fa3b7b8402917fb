package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"profileme/internal/profile"
)

// The campaign's progress is a journal: -checkpoint <dir> is an
// internal/wal directory holding one record per job outcome, in the order
// the supervisor took them. A record is one JSON line (journalEntry)
// followed, for a completed job, by the shard's profile.Save image:
//
//	{"fleet_seed":1,"job":{…},"status":"done","attempts":1,"seed":…,"totals":{…}}\n
//	PMDB…
//
// The supervisor merges a shard in memory, appends its record, waits for
// the fsync and only then takes the next result, so a crash at any point
// leaves a prefix of the outcomes: Resume replays it — re-merging the
// shard images in journal order — and every job without a record runs
// again with the seed it would have had. Damage has the WAL's one rule:
// the intact prefix counts, what follows is truncated or set aside
// (*.quarantined), and the jobs it held re-run (DESIGN.md §8).

// totals are the campaign counters that cannot be recomputed from the
// aggregate database alone.
type totals struct {
	Retired            uint64 `json:"retired"`
	Cycles             int64  `json:"cycles"`
	SamplesCaptured    uint64 `json:"samples_captured"`
	InterruptsDropped  uint64 `json:"interrupts_dropped,omitempty"`
	SamplesCorrupted   uint64 `json:"samples_corrupted,omitempty"`
	ShardsSubmitted    uint64 `json:"shards_submitted,omitempty"`
	ShardsSubmitFailed uint64 `json:"shards_submit_failed,omitempty"`
}

// journalEntry is the JSON line of one record: the job's ledger entry as
// of this outcome and the campaign totals including it.
type journalEntry struct {
	// FleetSeed pins every record to one campaign: Resume refuses a
	// journal whose seed disagrees with the configuration.
	FleetSeed uint64 `json:"fleet_seed"`
	jobRecord
	Totals totals `json:"totals"`
}

// checkpointDir creates dir if needed and refuses one that still holds a
// campaign in the pre-journal format (generation-paired manifest-<gen>.json
// and profile-<gen>.db): Resume would find no segment there and quietly
// start a fresh campaign beside the stale files.
func checkpointDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runner: checkpoint dir: %w", err)
	}
	if old, _ := filepath.Glob(filepath.Join(dir, "manifest-*.json")); len(old) > 0 {
		return fmt.Errorf("runner: %s is a campaign checkpoint written by an older build: finish it with the build that wrote it, or point at a clean directory", old[0])
	}
	return nil
}

// journal appends rec's outcome — with the shard image when the job
// completed — and returns once the record is on disk.
func (f *Fleet) journal(rec *jobRecord, shard *profile.DB) error {
	if f.wal == nil {
		return nil
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(journalEntry{FleetSeed: f.cfg.Seed, jobRecord: *rec, Totals: f.totals})
	if err == nil && shard != nil {
		err = shard.Save(&buf)
	}
	if err == nil {
		_, err = f.wal.Append(buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	return nil
}

// decodeEntry splits a record into its JSON line and what follows it.
func decodeEntry(payload []byte) (e journalEntry, image []byte, err error) {
	line, image, _ := bytes.Cut(payload, []byte{'\n'})
	if err := json.Unmarshal(line, &e); err != nil {
		return e, nil, fmt.Errorf("runner: journal record: %w", err)
	}
	return e, image, nil
}

// replay applies one journal record to a fleet under construction. Both
// pins are checked here, before anything is dispatched: the fleet seed on
// every record, the sampling configuration on every shard image.
func (f *Fleet) replay(payload []byte) error {
	e, image, err := decodeEntry(payload)
	if err != nil {
		return err
	}
	if e.FleetSeed != f.cfg.Seed {
		return fmt.Errorf("runner: checkpoint fleet seed %d does not match configured seed %d (wrong campaign?)", e.FleetSeed, f.cfg.Seed)
	}
	rec := f.byID[e.Job.ID] // nil: no longer in the campaign; its samples stay merged
	if e.Status == statusDone {
		shard, err := profile.LoadDB(bytes.NewReader(image))
		if err != nil {
			return fmt.Errorf("runner: journal record of job %s: %w", e.Job.ID, err)
		}
		if s, w, c := dbParams(f.cfg.CPU, f.cfg.Sampling); shard.S != s || shard.W != w || shard.C != c {
			return fmt.Errorf("runner: checkpoint sampling configuration S=%v W=%d C=%d does not match configured S=%v W=%d C=%d (wrong campaign?)",
				shard.S, shard.W, shard.C, s, w, c)
		}
		if rec != nil && rec.Status == statusDone {
			return fmt.Errorf("runner: journal completes job %s twice", e.Job.ID)
		}
		if f.agg == nil {
			f.agg = shard
		} else if err := f.agg.Merge(shard); err != nil {
			return fmt.Errorf("runner: journal record of job %s: %w", e.Job.ID, err)
		}
	}
	f.totals = e.Totals
	if rec != nil {
		rec.Status, rec.Attempts, rec.Seed, rec.Error = e.Status, e.Attempts, e.Seed, e.Error
	}
	return nil
}
