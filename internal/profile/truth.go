package profile

import "slices"

// NewExact returns the exact profile of n static instructions, row(i)
// giving the i-th one's on-path fetches (its samples), retirements (its
// retired event) and their summed fetch -> retire-ready cycles (its
// in-progress sum). S is 1, nothing is lost, and a row with no fetch is
// left out. Join measures a sampled database against it.
func NewExact(n int, row func(i int) (pc, fetched, retired uint64, inProgress int64)) *DB {
	db := NewDB(1, 0, 0)
	for i := 0; i < n; i++ {
		if pc, fetched, retired, inProgress := row(i); fetched > 0 {
			a := db.acc(pc)
			a.Samples, a.InProgressSum, a.InProgressCount = fetched, inProgress, retired
			a.Events[0] = retired // eventKinds[0] is EvRetired
			db.samples += fetched
		}
	}
	return db
}

// Realize sets S to the realized interval, fetched on-path instructions
// per sample captured (Samples()+Lost(), so the estimators correct a loss
// once), and returns what one delivered sample then stands for: S times
// the loss correction, the scale at which Join estimates what
// EstimatedCount does. With nothing captured S stays. Fleet shards keep
// the configured S, which they must agree on to merge.
func (db *DB) Realize(fetched uint64) float64 {
	if captured := db.samples + db.Lost(); captured > 0 {
		db.S = float64(fetched) / float64(captured)
	}
	return db.S * db.lossCorrection()
}

// JoinRow is one static instruction of a sampled profile beside the exact
// one: its sampled count K, the estimate K × scale, and its exact count.
type JoinRow struct {
	PC, K    uint64
	Estimate float64
	Truth    uint64
}

// Join pairs a sampled database with an exact one, in ascending PC order,
// one row for every PC where either count is non-zero; count reads the
// same quantity from both ((*PCAccum).Retired, say).
func Join(sampled, exact *DB, count func(*PCAccum) uint64, scale float64) []JoinRow {
	pcs := append(sampled.PCs(), exact.PCs()...)
	slices.Sort(pcs)
	var rows []JoinRow
	for _, pc := range slices.Compact(pcs) {
		r := JoinRow{PC: pc}
		if a := sampled.byPC[pc]; a != nil {
			r.K = count(a)
		}
		if a := exact.byPC[pc]; a != nil {
			r.Truth = count(a)
		}
		if r.K > 0 || r.Truth > 0 {
			r.Estimate = estimateCount(r.K, scale)
			rows = append(rows, r)
		}
	}
	return rows
}
