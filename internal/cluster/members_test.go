package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// memberStates reads every member's health off the table.
func memberStates(rt *Router) map[string]instanceState {
	vs, _ := rt.members.view()
	out := make(map[string]instanceState, len(vs))
	for _, v := range vs {
		out[v.id] = v.state
	}
	return out
}

// memberState reads one member's health; a non-member fails the test.
func memberState(t *testing.T, rt *Router, id string) instanceState {
	t.Helper()
	st, ok := memberStates(rt)[id]
	if !ok {
		t.Fatalf("%s is not a member", id)
	}
	return st
}

// tableModel is the independent model TestMembersProperty holds the
// table to: plain maps, no ring — ring order is re-derived from the member
// set on a fresh Ring, which is a pure function of (vnodes, seed, set).
type tableModel struct {
	threshold int
	members   map[string]*member
	pins      map[string]string
	epoch     uint64
}

func (m *tableModel) ids() []string {
	out := make([]string, 0, len(m.members))
	for id := range m.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (m *tableModel) ring(vnodes int, seed uint64) *Ring {
	r := NewRing(vnodes, seed)
	for _, id := range m.ids() {
		r.Add(id)
	}
	return r
}

func hopIDs(hs []hop) []string {
	out := make([]string, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.id)
	}
	sort.Strings(out)
	return out
}

// TestMembersProperty drives the table through random legal transitions
// next to the model and checks, after every step, the invariants the
// router leans on: table == ring == model membership, the epoch moves
// exactly on an effective add or remove, pins only name members, route()
// offers only members and never a Down or an unpinned Draining/delivered
// one, targets() is members − Down − delivered, observe returns the
// transition it made, signals for strangers and removed ids change
// nothing, and an answered signal never leaves Draining.
func TestMembersProperty(t *testing.T) {
	const (
		seeds, steps   = 16, 400
		vnodes         = 8
		idPool, shards = 6, 12
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ringSeed := uint64(seed) * 77
		id := func() string { return fmt.Sprintf("m%d", rng.Intn(idPool)) }
		shard := func() string { return fmt.Sprintf("s%d", rng.Intn(shards)) }

		boot := []Instance{{ID: "m0", BaseURL: "u0"}, {ID: "m1", BaseURL: "u1"}}
		ms := newMembers(2, vnodes, ringSeed, boot)
		model := &tableModel{threshold: 2, members: map[string]*member{}, pins: map[string]string{}}
		for _, in := range boot {
			model.members[in.ID] = &member{url: in.BaseURL}
			model.epoch++
		}

		for step := 0; step < steps; step++ {
			a, sh := id(), shard()
			am := model.members[a]
			var op string
			switch rng.Intn(10) {
			case 0:
				op = "commitAdd " + a
				url := fmt.Sprintf("u%d", step)
				got := ms.commitAdd(a, url)
				if am == nil {
					model.members[a] = &member{url: url}
					model.epoch++
				}
				if got != model.epoch {
					t.Fatalf("seed %d step %d %s: returned epoch %d, want %d", seed, step, op, got, model.epoch)
				}
			case 1:
				// Legal removal: another member receives. A non-member
				// subject is legal too — and must be a no-op.
				var receiver string
				for _, r := range model.ids() {
					if r != a {
						receiver = r
						break
					}
				}
				if receiver == "" {
					continue
				}
				op = fmt.Sprintf("commitRemove %s -> %s", a, receiver)
				gotEpoch, gotRepointed := ms.commitRemove(a, receiver)
				wantRepointed := 0
				if am != nil {
					delete(model.members, a)
					model.epoch++
					for s, at := range model.pins {
						if at == a {
							model.pins[s] = receiver
							wantRepointed++
						}
					}
				}
				if gotEpoch != model.epoch || gotRepointed != wantRepointed {
					t.Fatalf("seed %d step %d %s: (epoch %d, repointed %d), want (%d, %d)",
						seed, step, op, gotEpoch, gotRepointed, model.epoch, wantRepointed)
				}
			case 2:
				op = "reregister " + a
				url := fmt.Sprintf("r%d", step)
				if got := ms.reregister(a, url); got != (am != nil) {
					t.Fatalf("seed %d step %d %s: known=%v, want %v", seed, step, op, got, am != nil)
				}
				if am != nil {
					am.url, am.deliveredTo, am.offeredTo = url, "", ""
				}
			case 3:
				op = "delivered " + a
				to, want := id(), ""
				ms.delivered(a, to)
				if am != nil {
					am.deliveredTo, want = to, to
				}
				if got := ms.deliveredTo(a); got != want {
					t.Fatalf("seed %d step %d %s: deliveredTo %q, want %q", seed, step, op, got, want)
				}
			case 4, 5, 6, 7, 8:
				// observe one signal, failed twice as likely as each other;
				// the model's rule for each is below.
				sig := [...]signal{sigAnswered, sigAdmits, sigFailed, sigFailed, sigDraining}[rng.Intn(5)]
				op = fmt.Sprintf("observe %s %d", a, sig)
				from, to, epoch, ok := ms.observe(a, sig)
				wantFrom, wantTo := stateDown, stateDown
				if am != nil {
					wantFrom = am.state
					fails := 0
					switch sig {
					case sigAnswered:
						if am.state == stateDown {
							am.state = stateHealthy
						}
					case sigAdmits:
						am.state = stateHealthy
					case sigFailed:
						if fails = am.fails + 1; fails >= model.threshold {
							am.state = stateDown
						}
					case sigDraining:
						am.state = stateDraining
					}
					am.fails, wantTo = fails, am.state
				}
				if from != wantFrom || to != wantTo || epoch != model.epoch || ok != (am != nil) {
					t.Fatalf("seed %d step %d %s: (%v→%v @%d ok=%v), want (%v→%v @%d ok=%v)",
						seed, step, op, from, to, epoch, ok, wantFrom, wantTo, model.epoch, am != nil)
				}
			case 9:
				op = fmt.Sprintf("pin %s@%s", sh, a)
				ms.pin(sh, a)
				if am != nil {
					model.pins[sh] = a
				}
			}
			at := fmt.Sprintf("seed %d step %d after %s", seed, step, op)

			// Table == ring == model, row for row; the epoch with them.
			view, epoch := ms.view()
			if epoch != model.epoch {
				t.Fatalf("%s: epoch %d, want %d", at, epoch, model.epoch)
			}
			got := map[string]member{}
			for _, v := range view {
				got[v.id] = member{url: v.url, state: v.state}
			}
			want := map[string]member{}
			for id, m := range model.members {
				want[id] = member{url: m.url, state: m.state}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: view %v, want %v", at, got, want)
			}
			if ringIDs := ms.ring.ids(); !reflect.DeepEqual(ringIDs, model.ids()) {
				t.Fatalf("%s: ring holds %v, table %v", at, ringIDs, model.ids())
			}
			if !reflect.DeepEqual(ms.pins, model.pins) {
				t.Fatalf("%s: pins %v, want %v", at, ms.pins, model.pins)
			}
			for s, at2 := range ms.pins {
				if model.members[at2] == nil {
					t.Fatalf("%s: pin %s names non-member %s", at, s, at2)
				}
			}

			// targets: live = members − Down − delivered; down = Down − delivered.
			var wantLive, wantDown []string
			for _, id := range model.ids() {
				switch m := model.members[id]; {
				case m.deliveredTo != "":
				case m.state == stateDown:
					wantDown = append(wantDown, id)
				default:
					wantLive = append(wantLive, id)
				}
			}
			live, down, tEpoch := ms.targets()
			if tEpoch != model.epoch || !reflect.DeepEqual(hopIDs(live), append([]string{}, wantLive...)) ||
				!reflect.DeepEqual(hopIDs(down), append([]string{}, wantDown...)) {
				t.Fatalf("%s: targets live %v down %v epoch %d, want %v %v %d",
					at, hopIDs(live), hopIDs(down), tEpoch, wantLive, wantDown, model.epoch)
			}
			for _, h := range append(live, down...) {
				if h.url != model.members[h.id].url {
					t.Fatalf("%s: target %s at %q, want %q", at, h.id, h.url, model.members[h.id].url)
				}
			}

			// route, resolve, witness against the model's own ring.
			ring := model.ring(vnodes, ringSeed)
			for i := 0; i < shards; i++ {
				s := fmt.Sprintf("s%d", i)
				pinned := model.pins[s]
				var wantRoute []hop
				if m := model.members[pinned]; m != nil && m.state != stateDown {
					wantRoute = append(wantRoute, hop{pinned, m.url})
				}
				var wantWitness hop
				for _, id := range ring.successors(s, len(ring.instances)) {
					m := model.members[id]
					if id != pinned && m.state == stateHealthy && m.deliveredTo == "" {
						wantRoute = append(wantRoute, hop{id, m.url})
					}
					if wantWitness.id == "" && id != a && m.state != stateDown && m.deliveredTo == "" {
						wantWitness = hop{id, m.url}
					}
				}
				hops, rEpoch := ms.route(s)
				if rEpoch != model.epoch || !reflect.DeepEqual(append([]hop{}, hops...), append([]hop{}, wantRoute...)) {
					t.Fatalf("%s: route(%s) = %v @%d, want %v @%d", at, s, hops, rEpoch, wantRoute, model.epoch)
				}
				for _, h := range hops {
					m := model.members[h.id]
					if m == nil || m.state == stateDown || ((m.state == stateDraining || m.deliveredTo != "") && h.id != pinned) {
						t.Fatalf("%s: route(%s) offers %s (%+v, pinned %q)", at, s, h.id, m, pinned)
					}
				}
				owner, pin, _, ok := ms.resolve(s)
				wantOwner, _ := ring.Owner(s)
				if !ok || owner.id != wantOwner || pin.id != pinned || (pinned != "" && pin.url != model.members[pinned].url) {
					t.Fatalf("%s: resolve(%s) = owner %v pinned %v, want %s and %q", at, s, owner, pin, wantOwner, pinned)
				}
				if w, ok := ms.witness(s, a); ok != (wantWitness.id != "") || w != wantWitness {
					t.Fatalf("%s: witness(%s, %s) = %v, want %v", at, s, a, w, wantWitness)
				}
			}
		}
	}
}

// TestMembersBoundary: the table's state is written — and read — only
// through its methods. No file but members.go (and this one) may select a
// field of the members struct, whether as <router>.members.<field> or by
// the field names that exist nowhere else.
func TestMembersBoundary(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg.Files["members.go"], func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "members" {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					fields[name.Name] = true
				}
			}
			return false
		})
	}
	if !fields["mu"] || !fields["ring"] || !fields["byID"] || !fields["pins"] {
		t.Fatalf("did not find the members struct's fields: %v", fields)
	}
	unique := map[string]bool{"byID": true, "pins": true}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if name == "members.go" || name == "members_test.go" {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !fields[sel.Sel.Name] {
					return true
				}
				x, viaRouter := sel.X.(*ast.SelectorExpr)
				if unique[sel.Sel.Name] || (viaRouter && x.Sel.Name == "members") {
					t.Errorf("%s: .%s reaches into the membership table; add or use a members method",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
