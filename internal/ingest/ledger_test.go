package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"profileme/internal/profile"
	"profileme/internal/wal"
)

// ledgerModel is the property test's independent account of what the
// ledger must hold: plain sets and sums, updated by the rules in
// DESIGN.md §9, never by reading the ledger back.
type ledgerModel struct {
	admitted map[string]bool
	applied  map[string]bool
	refused  map[string]uint64
	from     map[string]string
	// reserved: stage done, commit not settled. queued: durable, waiting
	// for the aggregator. Both hold a staged position.
	reserved map[string]*wal.Ticket
	pos      map[string]wal.Pos
	queued   map[string]bool

	pending     map[wal.Pos]bool
	keys        map[string]uint64
	handoffs    map[string]bool
	failedLoss  uint64 // loss booked by merge failures: it never stands under a shard
	want        counters
	sinceCkpt   int
	stagedSoFar int64
}

// fakeStage hands out increasing positions and fresh tickets, failing
// when told to: the ledger never waits on a ticket, so no WAL is needed.
func (m *ledgerModel) fakeStage(fail *bool) func([]byte) (wal.Pos, *wal.Ticket, error) {
	return func([]byte) (wal.Pos, *wal.Ticket, error) {
		if *fail {
			return wal.Pos{}, nil, errors.New("disk on fire")
		}
		m.stagedSoFar++
		return wal.Pos{Seg: 1, Off: 16 * m.stagedSoFar}, new(wal.Ticket), nil
	}
}

func (m *ledgerModel) head() wal.Pos { return wal.Pos{Seg: 1, Off: 16 * (m.stagedSoFar + 1)} }

// check compares the ledger against the model after one step, and with
// snap also what a checkpoint taken now restores.
func (m *ledgerModel) check(t *testing.T, l *ledger, step string, snap bool) {
	t.Helper()
	// applied ⇒ admitted: an applied id has a record, and records are the
	// admitted ids (the view comparison below pins them to the model's).
	for _, sh := range slices.Concat(l.applied.set, l.applied.fresh) {
		if e := l.shards[sh]; e == nil || !e.applied {
			t.Fatalf("%s: shard %s is in the applied set but its record says %+v", step, sh, e)
		}
	}
	for sh, e := range l.shards {
		if want := m.reserved[sh]; e.ticket != want {
			t.Fatalf("%s: shard %s holds ticket %p, want %p (a settled entry holds none)", step, sh, e.ticket, want)
		}
	}
	v := l.view()
	wantShards, wantApplied := sortedKeys(m.admitted), sortedKeys(m.applied)
	if !reflect.DeepEqual(v.Shards, wantShards) || !reflect.DeepEqual(v.Applied, wantApplied) {
		t.Fatalf("%s: view shards %v applied %v, want %v / %v", step, v.Shards, v.Applied, wantShards, wantApplied)
	}
	if !reflect.DeepEqual(v.Refused, m.refused) || !reflect.DeepEqual(v.AdoptedFrom, m.from) {
		t.Fatalf("%s: view refused %v from %v, want %v / %v", step, v.Refused, v.AdoptedFrom, m.refused, m.from)
	}
	if len(l.pending) != len(m.pending) {
		t.Fatalf("%s: %d pending positions, want %d", step, len(l.pending), len(m.pending))
	}
	var standing uint64
	for _, n := range m.refused {
		standing += n
	}
	c, pending := l.counts()
	if pending != len(m.pending) {
		t.Fatalf("%s: counts reports %d pending, want %d", step, pending, len(m.pending))
	}
	if standing != c.SamplesLost-m.failedLoss {
		t.Fatalf("%s: standing loss %d != SamplesLost %d - merge-failed %d", step, standing, c.SamplesLost, m.failedLoss)
	}
	m.want.SamplesLost = standing + m.failedLoss
	if c != m.want {
		t.Fatalf("%s: counters\n got %+v\nwant %+v", step, c, m.want)
	}
	if l.sinceCkpt != m.sinceCkpt {
		t.Fatalf("%s: sinceCkpt %d, want %d", step, l.sinceCkpt, m.sinceCkpt)
	}
	wantBarrier := m.head()
	for pos := range m.pending {
		if _, ok := l.pending[pos]; !ok {
			t.Fatalf("%s: unresolved position %v is not pending", step, pos)
		}
		if pos.Before(wantBarrier) {
			wantBarrier = pos
		}
	}
	if !reflect.DeepEqual(l.handoffSeen, m.keys) || !slices.Equal(sorted(l.appliedHandoffs), sortedKeys(m.handoffs)) {
		t.Fatalf("%s: handoff books keys %v applied %v, want %v / %v", step,
			l.handoffSeen, l.appliedHandoffs, m.keys, sortedKeys(m.handoffs))
	}
	if !snap {
		return
	}

	// The checkpoint, as a restart sees it: snapshot, written and read
	// back as PMCK, restored into an empty ledger. Its view is the
	// model's — so snapshot and view read the same books — and its own
	// snapshot (nothing in flight, so the barrier is the head) writes
	// the same bytes: restore(snapshot) does not drift.
	var ck Checkpoint
	l.snapshot(&ck, m.head())
	var file bytes.Buffer
	if err := WriteCheckpoint(&file, &ck); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	read, err := ReadCheckpoint(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if read.Barrier != wantBarrier {
		t.Fatalf("%s: barrier %v, want %v", step, read.Barrier, wantBarrier)
	}
	restored := newLedger()
	restored.restore(read)
	rv := restored.view()
	if !reflect.DeepEqual(rv.Applied, wantApplied) || !reflect.DeepEqual(rv.Refused, m.refused) || !reflect.DeepEqual(rv.AdoptedFrom, m.from) {
		t.Fatalf("%s: restored books applied %v refused %v from %v, want %v / %v / %v", step,
			rv.Applied, rv.Refused, rv.AdoptedFrom, wantApplied, m.refused, m.from)
	}
	// A restart admits the applied and donor-provenance ids, not what was
	// queued or reserved: those replay from the WAL.
	wantRestored := map[string]bool{}
	for _, sh := range append(wantApplied, sortedKeys(m.from)...) {
		wantRestored[sh] = true
	}
	if !reflect.DeepEqual(rv.Shards, sortedKeys(wantRestored)) {
		t.Fatalf("%s: restored ledger admits %v, want %v", step, rv.Shards, sortedKeys(wantRestored))
	}
	if !reflect.DeepEqual(restored.handoffSeen, m.keys) || !slices.Equal(sorted(restored.appliedHandoffs), sortedKeys(m.handoffs)) {
		t.Fatalf("%s: restored handoff books keys %v applied %v, want %v / %v", step,
			restored.handoffSeen, restored.appliedHandoffs, m.keys, sortedKeys(m.handoffs))
	}
	if rc, _ := restored.counts(); rc.SamplesLost != standing {
		t.Fatalf("%s: restored SamplesLost %d, want the standing loss %d", step, rc.SamplesLost, standing)
	}
	var again Checkpoint
	restored.snapshot(&again, read.Barrier)
	var refile bytes.Buffer
	if err := WriteCheckpoint(&refile, &again); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if !bytes.Equal(file.Bytes(), refile.Bytes()) {
		t.Fatalf("%s: restore(snapshot) drifted\n first %+v\nsecond %+v", step, ck, again)
	}
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// pick returns a random key of m, "" when it is empty.
func pick[V any](rng *rand.Rand, m map[string]V) string {
	keys := sortedKeys(m)
	if len(keys) == 0 {
		return ""
	}
	return keys[rng.Intn(len(keys))]
}

// TestLedgerProperty drives the ledger alone — no WAL files, no
// goroutines — through seeded random legal transition sequences and
// checks every book against an independent model after every step.
// Seeds 1–16 also checkpoint after every step, so each fold takes one
// id; seeds 17–24 checkpoint after a random quarter of the steps, so
// folds take batches.
func TestLedgerProperty(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &ledgerModel{
			admitted: map[string]bool{}, applied: map[string]bool{}, refused: map[string]uint64{},
			from: map[string]string{}, reserved: map[string]*wal.Ticket{}, pos: map[string]wal.Pos{},
			queued: map[string]bool{}, pending: map[wal.Pos]bool{}, keys: map[string]uint64{}, handoffs: map[string]bool{},
		}
		l := newLedger()
		failStage := false
		if seed%4 != 0 { // every fourth seed runs WAL-less: all positions zero
			l.stage = m.fakeStage(&failStage)
		}
		release := func(sh string) {
			delete(m.pending, m.pos[sh])
			delete(m.pos, sh)
		}
		for step := 0; step < 500; step++ {
			var what string
			switch op := rng.Intn(12); op {
			case 0, 1, 2: // reserve: a retry of a refused id, else any id, known or new
				sh := fmt.Sprintf("s%03d", rng.Intn(300))
				if retry := pick(rng, m.refused); retry != "" && rng.Intn(2) == 0 {
					sh = retry
				}
				failStage = l.stage != nil && rng.Intn(8) == 0
				what = fmt.Sprintf("reserve %s (stage fails: %v)", sh, failStage)
				pos, tk, dup, err := l.reserve(sh, nil)
				switch {
				case m.admitted[sh]:
					if !dup || err != nil || tk != m.reserved[sh] {
						t.Fatalf("seed %d %s: admitted shard got dup=%v err=%v ticket=%p, want the original's ticket %p", seed, what, dup, err, tk, m.reserved[sh])
					}
				case failStage:
					if dup || !errors.Is(err, ErrWAL) {
						t.Fatalf("seed %d %s: dup=%v err=%v, want ErrWAL", seed, what, dup, err)
					}
				default:
					if dup || err != nil || (l.stage != nil) != (tk != nil) {
						t.Fatalf("seed %d %s: dup=%v err=%v ticket=%p", seed, what, dup, err, tk)
					}
					m.admitted[sh] = true
					m.pos[sh] = pos
					if tk != nil {
						m.reserved[sh], m.pending[pos] = tk, true
					} else {
						m.queued[sh] = true // no WAL: nothing to settle
					}
				}
				failStage = false
			case 3, 4: // settle, mostly durable
				sh := pick(rng, m.reserved)
				if sh == "" {
					continue
				}
				durable := rng.Intn(5) != 0
				what = fmt.Sprintf("settle %s durable=%v", sh, durable)
				l.settle(sh, m.pos[sh], m.reserved[sh], durable)
				delete(m.reserved, sh)
				if durable {
					m.queued[sh] = true
				} else {
					delete(m.admitted, sh)
					release(sh)
				}
			case 5: // refuse a queued shard, sometimes sealed
				sh := pick(rng, m.queued)
				if sh == "" {
					continue
				}
				n, sealed := uint64(rng.Intn(50)), rng.Intn(6) == 0
				what = fmt.Sprintf("refuse %s n=%d sealed=%v", sh, n, sealed)
				_, stood := m.refused[sh]
				if got := l.refuse(sh, m.pos[sh], n, sealed); got != (!stood && !sealed) {
					t.Fatalf("seed %d %s: recorded=%v with a standing refusal=%v", seed, what, got, stood)
				}
				if !stood && !sealed {
					m.refused[sh] = n
				}
				m.want.OverloadRejected++
				delete(m.queued, sh)
				delete(m.admitted, sh)
				release(sh)
			case 6, 7: // resolve a queued shard; the merge fails now and then
				sh := pick(rng, m.queued)
				if sh == "" {
					continue
				}
				captured, merged := uint64(rng.Intn(50)), rng.Intn(7) != 0
				what = fmt.Sprintf("resolve %s captured=%d merged=%v", sh, captured, merged)
				if got := l.standingLoss(sh); got != m.refused[sh] {
					t.Fatalf("seed %d %s: standing loss %d, model refusals %v", seed, what, got, m.refused)
				}
				l.resolve(sh, m.pos[sh], captured, merged)
				m.want.LossReversed += m.refused[sh]
				delete(m.refused, sh)
				if merged {
					m.want.Merged++
				} else {
					m.want.MergeFailed++
					m.failedLoss += captured
				}
				m.applied[sh] = true
				delete(m.queued, sh)
				release(sh)
			case 8: // a handoff: stage, commit (rarely failing), install, finish
				from := fmt.Sprintf("c%d", rng.Intn(3))
				ids := []string{fmt.Sprintf("s%03d", rng.Intn(300)), fmt.Sprintf("h%02d", rng.Intn(12))}
				key := fmt.Sprintf("key-%d-%d", seed, step)
				captured, merged := uint64(rng.Intn(500)), rng.Intn(7) != 0
				what = fmt.Sprintf("handoff from %s %v merged=%v", from, ids, merged)
				pos, tk, err := l.stageRecord(nil)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, what, err)
				}
				if tk != nil {
					m.pending[pos] = true
				}
				if rng.Intn(6) == 0 {
					l.settle("", pos, tk, false)
					delete(m.pending, pos)
					break
				}
				l.settle("", pos, tk, true)
				l.installHandoff(from, ids, key, captured)
				l.finishHandoff(pos, captured, merged)
				for _, sh := range ids {
					if !m.admitted[sh] {
						m.admitted[sh], m.from[sh] = true, from
					}
				}
				m.keys[key] = captured
				m.want.HandoffsIn++
				m.want.HandoffCaptured += captured
				if merged {
					m.sinceCkpt++
				} else {
					m.want.MergeFailed++
					m.failedLoss += captured
				}
				if !pos.IsZero() {
					m.handoffs[pos.String()] = true
					delete(m.pending, pos)
					if !l.handoffCovered(pos, "") {
						t.Fatalf("seed %d %s: applied handoff at %v is not covered on replay", seed, what, pos)
					}
				}
				if prev, seen := l.handoffDuplicate(key); !seen || prev != captured {
					t.Fatalf("seed %d %s: redelivery answered (%d, %v), want (%d, true)", seed, what, prev, seen, captured)
				}
				m.want.Duplicates++
			case 9: // an adoption
				from := fmt.Sprintf("c%d", rng.Intn(3))
				ids := []string{fmt.Sprintf("s%03d", rng.Intn(300)), fmt.Sprintf("a%02d", rng.Intn(12))}
				what = fmt.Sprintf("adopt from %s %v", from, ids)
				fresh := l.unadmitted(ids)
				pos, tk, _ := l.stageRecord(nil)
				l.settle("", pos, tk, true)
				n := l.adopt(from, fresh, pos)
				want := 0
				for _, sh := range ids {
					if !m.admitted[sh] {
						m.admitted[sh], m.from[sh] = true, from
						want++
					}
				}
				if n != want || len(fresh) != want {
					t.Fatalf("seed %d %s: adopted %d (fresh %v), want %d", seed, what, n, fresh, want)
				}
				m.want.AdoptedShards += uint64(want)
			case 10: // a duplicate answered
				what = "duplicate"
				l.duplicate()
				m.want.Duplicates++
			case 11: // the checkpoint cadence
				what = "cadence"
				m.sinceCkpt += 2
				if got := l.sinceCheckpoint(2); got != m.sinceCkpt {
					t.Fatalf("seed %d: sinceCheckpoint %d, want %d", seed, got, m.sinceCkpt)
				}
				switch rng.Intn(3) {
				case 0:
					l.checkpointed(nil)
					m.want.Checkpoints++
					m.sinceCkpt = 0
				case 1:
					l.checkpointed(errBreakerOpen)
					m.want.CheckpointShorted++
				default:
					l.checkpointed(errors.New("disk full"))
					m.want.CheckpointFailures++
				}
			}
			m.check(t, l, fmt.Sprintf("seed %d step %d: %s", seed, step, what), seed <= 16 || rng.Intn(4) == 0)
		}
		if len(m.applied) == 0 || m.want.LossReversed == 0 || m.want.MergeFailed == 0 || len(m.from) == 0 {
			t.Fatalf("seed %d never exercised merge, reversal, merge failure and provenance: %+v", seed, m.want)
		}
	}
}

// TestLedgerSnapshotBytes pins the checkpoint's ledger half: the PMCK
// fixture, restored and snapshotted again beside its image re-saved, must
// encode to the fixture byte for byte.
func TestLedgerSnapshotBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "frame", "testdata", "small-ck2.pmck"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	db, err := profile.LoadDB(bytes.NewReader(ck.Profile))
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := db.Save(&image); err != nil {
		t.Fatal(err)
	}
	l := newLedger()
	l.restore(ck)
	got := Checkpoint{Profile: image.Bytes()}
	l.snapshot(&got, ck.Barrier)
	var have bytes.Buffer
	if err := WriteCheckpoint(&have, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have.Bytes(), want) {
		t.Fatalf("snapshot(restore(small-ck2.pmck)) encodes differently:\n got %x\nwant %x", have.Bytes(), want)
	}
	if v := l.view(); !reflect.DeepEqual(v.Shards, []string{"a/s000", "a/s001", "a/s003"}) {
		t.Fatalf("restored ledger admits %v", v.Shards)
	}
}

// TestLedgerBoundary keeps the books behind their methods: outside
// ledger.go and this file, nothing in the package may select a ledger
// field — which includes taking its lock.
func TestLedgerBoundary(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	ast.Inspect(pkgs["ingest"].Files["ledger.go"], func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "ledger" {
			return true
		}
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range f.Names {
				fields[name.Name] = true
			}
		}
		return false
	})
	if !fields["mu"] || !fields["shards"] || !fields["pending"] {
		t.Fatalf("did not find the ledger struct's fields: %v", fields)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if name == "ledger.go" || name == "ledger_test.go" {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !fields[sel.Sel.Name] {
					return true
				}
				// Everything else reaches the ledger as <service>.led.
				if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "led" {
					t.Errorf("%s: led.%s reaches into the ledger; add or use a ledger method",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
