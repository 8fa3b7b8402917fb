package ingest

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"profileme/internal/api"
	"profileme/internal/wal"
)

// ledger is the admission ledger: which shard ids this instance answers
// for, what became of each, which WAL records are still unresolved, and
// the counters that account for all of it. Everything the collector
// claims — every 202 a durability receipt, exactly-once merge across
// retry / failover / migration, Σ captured == Samples + Lost — is a
// statement about these books, so its methods are their only writers.
//
// One shard id moves through
//
//	unknown -> reserved -> queued -> applied
//	              |           |
//	              +-----------+--> refused -> reserved (retry) -> ...
//
// reserved (admitted, WAL ticket outstanding), queued (admitted, durable)
// and applied (resolved by the aggregator) all dedupe a resubmission;
// refused is the side state: the id is released for a retry and its
// captured samples stand in the aggregate's loss ledger until a retry's
// merge takes them back — so a standing refusal outlives the admission
// that caused it and overlaps the retry's. Donor provenance (handoff,
// adoption) admits an id without any of that: its samples live in the
// donor's aggregate.
//
// Lock rule: mu guards the books and only ledger methods take it, for
// map operations and the buffered stage call that must be atomic with
// its pending entry — never across a merge, a save or an fsync.
// Service.res orders the transitions that pair a book change with an
// aggregate change (refuse, resolve, installHandoff/finishHandoff,
// adopt, snapshot); each says so. reserve, stageRecord, settle and the
// reads need no res, which is why an accepted Submit never waits for a
// merge or a checkpoint.
type ledger struct {
	mu sync.Mutex
	// stage appends one record to the WAL's open batch (wal.Log.Stage);
	// nil when the WAL is disabled, and every position is then zero.
	stage func([]byte) (wal.Pos, *wal.Ticket, error)

	// shards holds the admitted ids — reserved, queued, applied, or taken
	// over from a donor; presence is admission.
	shards map[string]*shardEntry
	// refused maps an id under a standing refusal (429/503) to the exact
	// loss recorded for it, so a repeat refusal accounts nothing new and
	// the merge of an accepted retry reverses precisely what was recorded.
	// Kept beside shards, not in its records, because a refusal stands
	// whether or not the id is admitted.
	refused map[string]uint64
	// applied holds the applied ids, and adopted the ids admitted by
	// handoff or adoption rather than by submission, each with its donor:
	// the reason a retry of a donor-merged shard dedupes here instead of
	// merging twice. Both only accumulate, so each is a folded set: a
	// snapshot sorts what arrived since the last one and merges it in
	// under res, instead of scanning shards or re-sorting every id under
	// the lock admission waits on; nothing else reads provenance, so the
	// set is its only copy.
	applied folded[string]
	adopted folded[Provenance]
	// pending holds the staged WAL positions not yet resolved, refused or
	// backed out. The checkpoint barrier is its minimum, so reclaim can
	// never outrun an acknowledged-but-unmerged record.
	pending map[wal.Pos]struct{}
	// handoffSeen maps an applied handoff envelope's content digest to the
	// captured total it acknowledged: a byte-identical redelivery (the
	// sender retrying after a lost ack) gets that answer again instead of
	// a second merge of the donor's aggregate.
	handoffSeen map[string]uint64
	// appliedHandoffs lists applied handoff records by Pos.String() —
	// stable across replays — so a replayed handoff never double-merges.
	// A handful per instance lifetime: a slice, searched.
	appliedHandoffs []string
	sinceCkpt       int
	c               counters
}

// shardEntry is one admitted shard id's record; a resubmission of the id
// dedupes while it exists. Memory grows with distinct shard ids: 130–140
// B of heap per applied id (map entry, record, id string and its two
// folded-set slots) and about 3 B per id in a PMCK v2 checkpoint, as
// TestCheckpointCostFlatInIDs measured at 10^5–10^6 ids.
type shardEntry struct {
	applied bool // resolved: merged, or merge-failed with the loss accounted
	// ticket is the group commit the reserving submission still waits on.
	// A resubmission must not answer "duplicate" off the reservation
	// alone — that 202 is a durability receipt too — so it blocks on the
	// same ticket. Set only between stage and settle.
	ticket *wal.Ticket
}

// Provenance records that Shard was taken over from the donor From.
type Provenance struct{ Shard, From string }

func byShard(a, b Provenance) int { return strings.Compare(a.Shard, b.Shard) }

// folded is an append-only set kept sorted for checkpoints without
// re-sorting what it already holds. set is sorted and never written once
// installed; fresh lists what arrived since the last fold, in arrival
// order; spare is the backing array the next fold merges into (the set
// before last). The ledger's lock guards set and fresh; spare belongs to
// the fold, which runs under res.
type folded[T any] struct {
	set, fresh, spare []T
}

// fold sorts fresh and merges it into set, writing spare — grown with
// headroom when it is too small, so a steady stream of checkpoints
// reuses two arrays — and returns the new set for install. Caller holds
// res, not the ledger's lock: the set is never written, and no one else
// touches spare.
func (f *folded[T]) fold(set, fresh []T, cmp func(T, T) int) []T {
	if len(fresh) == 0 {
		return set
	}
	buf := f.spare[:0]
	if need := len(set) + len(fresh); cap(buf) < need {
		buf = make([]T, 0, need+need/4)
	}
	return mergeBack(append(buf, set...), fresh, cmp)
}

// install makes merged — fold's result over the first n fresh items —
// the set, and the old set the next fold's spare. Caller holds the
// ledger's lock and res; O(1) unless items arrived during the fold.
func (f *folded[T]) install(merged []T, n int) {
	if n == 0 {
		return
	}
	f.set, f.spare = merged, f.set
	f.fresh = append(f.fresh[:0], f.fresh[n:]...)
}

// mergeBack sorts b into a, a sorted slice with room for b after it,
// from the back, and returns a extended by len(b).
func mergeBack[T any](a, b []T, cmp func(T, T) int) []T {
	slices.SortFunc(b, cmp)
	i, j := len(a)-1, len(b)-1
	a = a[:len(a)+len(b)]
	for w := len(a) - 1; j >= 0; w-- {
		if i >= 0 && cmp(a[i], b[j]) > 0 {
			a[w], i = a[i], i-1
		} else {
			a[w], j = b[j], j-1
		}
	}
	return a
}

// counters is the counted half of the books; Stats embeds it, so the
// /v1/stats keys are these tags.
type counters struct {
	Merged      uint64 `json:"merged"`       // submissions folded into the aggregate
	MergeFailed uint64 `json:"merge_failed"` // accepted but unmergeable (accounted as loss)

	OverloadRejected uint64 `json:"overload_rejected"`     // refusal responses (429/503), retries included
	Duplicates       uint64 `json:"duplicate_submissions"` // resubmissions of admitted shards (deduped)

	// SamplesLost mirrors the aggregate's overload/drain loss ledger: it
	// counts each refused shard's captured samples once, no matter how
	// many times the shard was refused, and goes back DOWN when a refused
	// shard is later merged on retry (the loss is reversed).
	SamplesLost uint64 `json:"samples_lost"`
	// LossReversed totals the reversals, so SamplesLost + LossReversed is
	// the high-water mark of loss ever recorded.
	LossReversed uint64 `json:"samples_loss_reversed"`

	Checkpoints        uint64 `json:"checkpoints"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	CheckpointShorted  uint64 `json:"checkpoint_short_circuited"`

	// HandoffsIn counts donor aggregates merged into this instance during
	// peer drains, HandoffCaptured their total captured samples (delivered
	// + lost) — the amount of fleet-wide accounting that migrated here.
	HandoffsIn      uint64 `json:"handoffs_in"`
	HandoffCaptured uint64 `json:"handoff_captured"`
	// AdoptedShards counts shard ids taken over via ledger adoption
	// during membership changes — dedupe obligations, not samples.
	AdoptedShards uint64 `json:"adopted_shards"`
}

func newLedger() *ledger {
	return &ledger{
		shards:      make(map[string]*shardEntry),
		refused:     make(map[string]uint64),
		pending:     make(map[wal.Pos]struct{}),
		handoffSeen: make(map[string]uint64),
	}
}

// attachWAL routes staging to an open WAL. Called once, before the
// service is shared.
func (l *ledger) attachWAL(stage func([]byte) (wal.Pos, *wal.Ticket, error)) { l.stage = stage }

// entry returns shard's record, admitting the id if it was not. Caller
// holds mu.
func (l *ledger) entry(shard string) *shardEntry {
	e := l.shards[shard]
	if e == nil {
		e = &shardEntry{}
		l.shards[shard] = e
	}
	return e
}

// apply admits shard if need be and marks it resolved. Caller holds mu.
func (l *ledger) apply(shard string) {
	if e := l.entry(shard); !e.applied {
		e.applied = true
		l.applied.fresh = append(l.applied.fresh, shard)
	}
}

// stageLocked stages rec and registers its position as pending in the
// same critical section, so no barrier can be computed past a staged
// record. Caller holds mu.
func (l *ledger) stageLocked(rec []byte) (wal.Pos, *wal.Ticket, error) {
	if l.stage == nil {
		return wal.Pos{}, nil, nil
	}
	pos, t, err := l.stage(rec)
	if err != nil {
		return wal.Pos{}, nil, fmt.Errorf("%w: %v", ErrWAL, err)
	}
	l.pending[pos] = struct{}{}
	return pos, t, nil
}

// lookup returns a copy of shard's record and whether the id is
// admitted. Resolution is stable while the caller holds res; admission
// and the ticket can move at any time.
func (l *ledger) lookup(shard string) (e shardEntry, admitted bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.shards[shard]; p != nil {
		return *p, true
	}
	return shardEntry{}, false
}

// standingLoss returns the loss recorded for shard's standing refusal,
// zero when it has none. Stable while the caller holds res.
func (l *ledger) standingLoss(shard string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refused[shard]
}

// reserve admits shard and stages its WAL record in one critical
// section, so two racing submissions of one id cannot both merge and a
// duplicate arriving before the commit finds the ticket to wait on. dup
// reports an id already admitted (t is then the original's ticket).
func (l *ledger) reserve(shard string, rec []byte) (pos wal.Pos, t *wal.Ticket, dup bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.shards[shard]; e != nil {
		return wal.Pos{}, e.ticket, true, nil
	}
	if pos, t, err = l.stageLocked(rec); err != nil {
		return wal.Pos{}, nil, false, err
	}
	l.entry(shard).ticket = t
	return pos, t, false, nil
}

// stageRecord stages a control-plane record (handoff, adoption), which
// reserves no shard. Its position holds the barrier until the step that
// applies it releases it.
func (l *ledger) stageRecord(rec []byte) (wal.Pos, *wal.Ticket, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stageLocked(rec)
}

// settle closes a staged record's group commit. Durable, the shard
// moves from reserved to queued and the position stays pending; failed,
// nothing was acknowledged, so the reservation and the position are
// backed out. shard is "" for a control-plane record.
func (l *ledger) settle(shard string, pos wal.Pos, t *wal.Ticket, durable bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.shards[shard]; e != nil && e.ticket == t {
		e.ticket = nil
		if !durable {
			delete(l.shards, shard)
		}
	}
	if !durable {
		delete(l.pending, pos)
	}
}

// duplicate counts one deduped resubmission.
func (l *ledger) duplicate() {
	l.mu.Lock()
	l.c.Duplicates++
	l.mu.Unlock()
}

// refuse backs shard out of admission: the reservation and the staged
// position are released — no refusal record is written; on a crash the
// retained admit record replays as a merge, which conserves the same
// captured samples as Samples instead of Lost — and, the first time
// this id is refused only, n is booked as its standing loss. It reports
// whether it was, in which case the caller, holding res, records n in the
// aggregate too, so a snapshot sees the entry and the aggregate loss
// together or not at all. A sealed service books nothing: the export snapshot may
// already be encoded, and a loss recorded after it would stand in books
// about to be quarantined, vanishing from the fleet sum.
func (l *ledger) refuse(shard string, pos wal.Pos, n uint64, sealed bool) (recorded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pending, pos)
	l.c.OverloadRejected++
	if _, stands := l.refused[shard]; !stands && !sealed {
		l.refused[shard] = n
		l.c.SamplesLost += n
		recorded = true
	}
	delete(l.shards, shard)
	return recorded
}

// resolve books the aggregator's resolution of shard, after the caller
// (holding res) has reversed its standing loss in the aggregate and
// merged it — or, merged false, recorded its captured samples as loss:
// the refusal is cleared, the id is applied (a permanent merge failure
// too: a retry must dedupe and a replay must skip) and the staged
// position is released.
func (l *ledger) resolve(shard string, pos wal.Pos, captured uint64, merged bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if loss, stands := l.refused[shard]; stands {
		l.c.SamplesLost -= loss
		l.c.LossReversed += loss
		delete(l.refused, shard)
	}
	if merged {
		l.c.Merged++
	} else {
		l.c.MergeFailed++
		l.c.SamplesLost += captured
	}
	l.apply(shard)
	delete(l.pending, pos)
}

// sinceCheckpoint adds merged to the count of aggregate changes since
// the last successful checkpoint and returns it.
func (l *ledger) sinceCheckpoint(merged int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinceCkpt += merged
	return l.sinceCkpt
}

// checkpointed books a checkpoint attempt's outcome.
func (l *ledger) checkpointed(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case errors.Is(err, errBreakerOpen):
		l.c.CheckpointShorted++
	case err != nil:
		l.c.CheckpointFailures++
	default:
		l.c.Checkpoints++
		l.sinceCkpt = 0
	}
}

// handoffDuplicate reports (and counts) a redelivery of an applied
// handoff envelope, with the captured total the original acknowledged.
func (l *ledger) handoffDuplicate(key string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	captured, seen := l.handoffSeen[key]
	if seen {
		l.c.Duplicates++
	}
	return captured, seen
}

// handoffCovered reports whether a replayed handoff record must be
// skipped: its position is in the applied set, or — the other crash
// window — a duplicate delivery whose FIRST copy is in the checkpoint
// while this second copy's record survived the barrier; the positions
// differ, the keys do not. Caller holds res.
func (l *ledger) handoffCovered(pos wal.Pos, key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if slices.Contains(l.appliedHandoffs, pos.String()) {
		return true
	}
	if _, seen := l.handoffSeen[key]; key != "" && seen {
		l.appliedHandoffs = append(l.appliedHandoffs, pos.String())
		return true
	}
	return false
}

// admitFrom admits the not-yet-admitted ids of shards with provenance
// from and returns how many it admitted; an admitted id keeps its
// standing entry. Caller holds mu.
func (l *ledger) admitFrom(from string, shards []string) int {
	n := 0
	for _, sh := range shards {
		if l.shards[sh] == nil {
			l.entry(sh)
			l.adopted.fresh = append(l.adopted.fresh, Provenance{sh, from})
			n++
		}
	}
	return n
}

// installHandoff is the first half of folding a donor's handoff in: its
// shard ids join the ledger BEFORE the caller merges its aggregate, so a
// client retry racing the handoff dedupes instead of double-merging.
// Caller holds res until finishHandoff.
func (l *ledger) installHandoff(from string, shards []string, key string, captured uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.admitFrom(from, shards)
	if key != "" {
		l.handoffSeen[key] = captured
	}
	l.c.HandoffsIn++
	l.c.HandoffCaptured += captured
}

// finishHandoff books the donor merge's outcome — merged false means the
// caller recorded the donor's whole captured population as loss — and
// marks the handoff's WAL record applied, releasing its position.
func (l *ledger) finishHandoff(pos wal.Pos, captured uint64, merged bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if merged {
		l.sinceCkpt++
	} else {
		l.c.MergeFailed++
		l.c.SamplesLost += captured
	}
	if !pos.IsZero() {
		l.appliedHandoffs = append(l.appliedHandoffs, pos.String())
		delete(l.pending, pos)
	}
}

// unadmitted filters shards to the ids not yet admitted.
func (l *ledger) unadmitted(shards []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := make([]string, 0, len(shards))
	for _, sh := range shards {
		if l.shards[sh] == nil {
			fresh = append(fresh, sh)
		}
	}
	return fresh
}

// adopt takes over dedupe obligations: the not-yet-admitted ids of
// shards are admitted with provenance from, and the adoption's WAL
// position is released. Naturally idempotent, so a replayed adoption
// reconstructs the same state. Caller holds res.
func (l *ledger) adopt(from string, shards []string, pos wal.Pos) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.admitFrom(from, shards)
	l.c.AdoptedShards += uint64(n)
	delete(l.pending, pos)
	return n
}

// snapshot fills ck's ledger half and its barrier: the lowest pending
// position, or head — the WAL's head, zero without one — when nothing
// is in flight. Caller holds res for as long as it takes to encode the
// checkpoint, so image, books and barrier are one instant: every record
// below the barrier is in these books or was never acknowledged, and
// whatever admission stages meanwhile lands at or above head.
//
// ck.Applied and ck.HandoffFrom are the ledger's folded sets themselves,
// valid until the next snapshot. The ledger's lock is held twice, each
// time for as long as what is unresolved or new right now: to read the
// small books and the ids that arrived since the last snapshot, and to
// install the sets fold merged them into under res alone.
func (l *ledger) snapshot(ck *Checkpoint, head wal.Pos) {
	l.mu.Lock()
	applied, newApplied := l.applied.set, slices.Clone(l.applied.fresh)
	adopted, newAdopted := l.adopted.set, slices.Clone(l.adopted.fresh)
	ck.RefusedLoss = maps.Clone(l.refused)
	ck.Barrier = head
	for pos := range l.pending {
		if pos.Before(ck.Barrier) {
			ck.Barrier = pos
		}
	}
	ck.AppliedHandoffs = append([]string{}, l.appliedHandoffs...)
	ck.HandoffKeys = maps.Clone(l.handoffSeen)
	l.mu.Unlock()
	ck.Applied = l.applied.fold(applied, newApplied, strings.Compare)
	ck.HandoffFrom = l.adopted.fold(adopted, newAdopted, byShard)
	if len(newApplied)+len(newAdopted) > 0 {
		l.mu.Lock()
		l.applied.install(ck.Applied, len(newApplied))
		l.adopted.install(ck.HandoffFrom, len(newAdopted))
		l.mu.Unlock()
	}
}

// restore installs a checkpoint's ledger half into an empty ledger — the
// inverse of snapshot. ReadCheckpoint hands over its ids sorted, so they
// become the folded sets as they are: the ledger owns ck's slices from
// here on. A queued-but-unresolved shard is deliberately absent from a
// checkpoint, so its WAL record replays.
func (l *ledger) restore(ck *Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sh := range ck.Applied {
		l.entry(sh).applied = true
	}
	for _, p := range ck.HandoffFrom {
		l.entry(p.Shard)
	}
	l.applied.set, l.adopted.set = ck.Applied, ck.HandoffFrom
	for sh, n := range ck.RefusedLoss {
		l.refused[sh] = n
		l.c.SamplesLost += n
	}
	l.appliedHandoffs = append(l.appliedHandoffs, ck.AppliedHandoffs...)
	maps.Copy(l.handoffSeen, ck.HandoffKeys)
}

// view is the one consistent read of the per-shard books (Service.Ledger).
func (l *ledger) view() api.Ledger {
	l.mu.Lock()
	// The applied set is copied under the lock — a later fold may reuse
	// its array — and only the fresh ids are sorted, after it.
	applied, fresh := l.applied.set, slices.Clone(l.applied.fresh)
	v := api.Ledger{
		Shards:      make([]string, 0, len(l.shards)),
		Applied:     append(make([]string, 0, len(applied)+len(fresh)), applied...),
		Refused:     maps.Clone(l.refused),
		AdoptedFrom: make(map[string]string, len(l.adopted.set)+len(l.adopted.fresh)),
	}
	for sh := range l.shards {
		v.Shards = append(v.Shards, sh)
	}
	for _, ps := range [2][]Provenance{l.adopted.set, l.adopted.fresh} {
		for _, p := range ps {
			v.AdoptedFrom[p.Shard] = p.From
		}
	}
	l.mu.Unlock()
	sort.Strings(v.Shards)
	v.Applied = mergeBack(v.Applied, fresh, strings.Compare)
	v.Count = len(v.Shards)
	return v
}

// counts returns the counters and the number of pending WAL records.
func (l *ledger) counts() (counters, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c, len(l.pending)
}
