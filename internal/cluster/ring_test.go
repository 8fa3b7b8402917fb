package cluster

import (
	"fmt"
	"testing"
)

// shardKeys synthesizes a campaign-shaped key population: benchmarks ×
// shards, the ids the tier actually places.
func shardKeys(n int) []string {
	keys := make([]string, 0, n)
	benches := []string{"compress", "matmul", "pointer-chase", "branchy"}
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, fmt.Sprintf("%s/s%03d", benches[i%len(benches)], i))
	}
	return keys
}

func buildRing(vnodes int, seed uint64, instances ...string) *Ring {
	r := NewRing(vnodes, seed)
	for _, id := range instances {
		r.Add(id)
	}
	return r
}

// TestRingDeterministicPlacement: the ring is a pure function of (seed,
// vnodes, instance set). Insertion order must not matter — a restarted
// router re-derives the identical layout, so a retried shard lands on
// the same owner it did before the restart.
func TestRingDeterministicPlacement(t *testing.T) {
	keys := shardKeys(2000)
	orders := [][]string{
		{"c0", "c1", "c2", "c3", "c4"},
		{"c4", "c2", "c0", "c3", "c1"},
		{"c3", "c4", "c1", "c0", "c2"},
	}
	var want []string
	for oi, order := range orders {
		r := buildRing(0, 7, order...)
		got := make([]string, len(keys))
		for i, k := range keys {
			owner, ok := r.Owner(k)
			if !ok {
				t.Fatalf("order %d: no owner for %s", oi, k)
			}
			got[i] = owner
		}
		if want == nil {
			want = got
			continue
		}
		for i := range keys {
			if got[i] != want[i] {
				t.Fatalf("placement depends on insertion order: key %s owned by %s (order 0) vs %s (order %d)",
					keys[i], want[i], got[i], oi)
			}
		}
	}

	// A different seed is a different (still valid) layout — the seed is
	// the deployment's layout knob, not noise.
	other := buildRing(0, 8, orders[0]...)
	diff := 0
	for _, k := range keys {
		a, _ := buildRing(0, 7, orders[0]...).Owner(k)
		b, _ := other.Owner(k)
		if a != b {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed has no effect on the virtual-node layout")
	}
}

// TestRingRebalanceBound is the satellite property test: adding or
// removing one instance moves at most (1/N + ε) of the shard ids, where
// N is the larger membership, and the keys that move on removal are
// exactly the removed instance's.
func TestRingRebalanceBound(t *testing.T) {
	const (
		numKeys = 10_000
		epsilon = 0.06 // virtual-node variance allowance at 128 vnodes
	)
	keys := shardKeys(numKeys)

	for _, n := range []int{2, 3, 5, 8} {
		instances := make([]string, n)
		for i := range instances {
			instances[i] = fmt.Sprintf("c%d", i)
		}
		before := buildRing(0, 42, instances...)
		owners := make(map[string]string, numKeys)
		for _, k := range keys {
			owners[k], _ = before.Owner(k)
		}

		// Add one instance: at most (1/(N+1) + ε) of keys move, and every
		// key that moves, moves TO the newcomer (consistent hashing's whole
		// point — no unrelated churn).
		added := buildRing(0, 42, instances...)
		added.Add("cNEW")
		moved := 0
		for _, k := range keys {
			now, _ := added.Owner(k)
			if now != owners[k] {
				moved++
				if now != "cNEW" {
					t.Fatalf("N=%d add: key %s moved %s -> %s, not to the new instance", n, k, owners[k], now)
				}
			}
		}
		bound := (1.0/float64(n+1) + epsilon) * numKeys
		if float64(moved) > bound {
			t.Fatalf("N=%d add: %d/%d keys moved, bound %.0f", n, moved, numKeys, bound)
		}
		if moved == 0 {
			t.Fatalf("N=%d add: new instance received no keys", n)
		}

		// Remove one instance: only ITS keys move, and they are at most
		// (1/N + ε) of the population.
		removed := buildRing(0, 42, instances...)
		removed.remove(instances[n-1])
		moved = 0
		for _, k := range keys {
			now, _ := removed.Owner(k)
			if now != owners[k] {
				moved++
				if owners[k] != instances[n-1] {
					t.Fatalf("N=%d remove: key %s moved %s -> %s though its owner stayed", n, k, owners[k], now)
				}
			}
			if now == instances[n-1] {
				t.Fatalf("N=%d remove: key %s still owned by removed instance", n, k)
			}
		}
		bound = (1.0/float64(n) + epsilon) * numKeys
		if float64(moved) > bound {
			t.Fatalf("N=%d remove: %d/%d keys moved, bound %.0f", n, moved, numKeys, bound)
		}
	}
}

// TestRingSuccessors: the failover candidate list starts at the owner,
// is distinct, and covers the membership.
func TestRingSuccessors(t *testing.T) {
	r := buildRing(0, 1, "c0", "c1", "c2")
	for _, k := range shardKeys(200) {
		owner, _ := r.Owner(k)
		succ := r.successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("key %s: %d successors, want 3", k, len(succ))
		}
		if succ[0] != owner {
			t.Fatalf("key %s: successors start at %s, owner is %s", k, succ[0], owner)
		}
		seen := map[string]bool{}
		for _, id := range succ {
			if seen[id] {
				t.Fatalf("key %s: duplicate successor %s", k, id)
			}
			seen[id] = true
		}
	}
	if got := r.successors("any", 10); len(got) != 3 {
		t.Fatalf("successors beyond membership: %d, want clamped to 3", len(got))
	}
}
