// Package cluster is the multi-instance collector tier in front of the
// pmsimd stack: consistent-hash shard placement over N instances, a
// scatter-gather router that degrades to explicit partial results when
// instances are down, a passive/active health tracker, and the elastic
// membership that moves a removed instance's aggregate and ledger to a
// receiver so a scale-in loses zero accumulated samples.
//
// The tier-level contract extends the single-instance conservation
// invariant of internal/ingest fleet-wide:
//
//	Σ captured over distinct (instance, shard) == Σ over live instances of Samples+Lost
//
// where a (instance, shard) pair is "recorded" when the shard finally
// merged at that instance or its refusal loss still stands there, and a
// handed-off aggregate carries its recorder's pairs to the receiver.
// The tier saturation soak pins this down under a 4× flood with a
// SIGKILL and a removal mid-flood.
package cluster

import (
	"fmt"
	"sort"
)

// fnv1a64 hashes key with a seed folded in first, so a deployment can
// pick a virtual-node layout without losing determinism: the same
// (seed, instances) always yields the same ring, across process
// restarts and insertion orders.
//
// Raw FNV-1a is not enough here: ring order sorts on the HIGH bits, and
// for the short, prefix-shared keys this ring sees ("c0#17", "c0#18",
// "compress/s003") a trailing-byte difference only reaches the low ~48
// bits, clustering one instance's virtual nodes and skewing ownership
// far beyond vnode variance. The final avalanche (the 64-bit
// mix from MurmurHash3) spreads every input bit across all 64 output
// bits; the rebalance property test holds the shares to the expected
// 1/N ± ε.
func fnv1a64(seed uint64, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: an instance's presence at a hash
// position on the ring.
type ringPoint struct {
	hash     uint64
	instance string
}

// Ring is a consistent-hash ring with virtual nodes, keyed by shard id.
// Placement is deterministic: the ring is a pure function of (seed,
// vnodes, instance set) — no randomness, no insertion-order dependence —
// so a restarted router re-derives the identical layout and a retried
// shard lands on the same owner. Not safe for concurrent use; the
// router's ring lives in its membership table, under that table's mutex.
type Ring struct {
	vnodes    int
	seed      uint64
	points    []ringPoint // sorted by (hash, instance)
	instances map[string]bool
	// epoch versions the membership: it bumps on every effective Add or
	// Remove, never on no-ops, so two rings with the same epoch that
	// started from the same base hold the same instance set. Clients cache
	// (shard -> instance) resolutions tagged with the epoch; the router's
	// wrong-owner 409 carries the current epoch so a stale client knows to
	// re-resolve rather than spin.
	epoch uint64
}

// DefaultVNodes is the default virtual-node count per instance: enough
// that one instance joining or leaving moves close to the ideal 1/N of
// the key space (the rebalance property test bounds the deviation).
const DefaultVNodes = 128

// NewRing builds an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, seed: seed, instances: make(map[string]bool)}
}

// Add places instance's virtual nodes on the ring. Adding an instance
// twice is a no-op (the epoch does not move).
func (r *Ring) Add(instance string) {
	if r.instances[instance] {
		return
	}
	r.instances[instance] = true
	r.epoch++
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:     fnv1a64(r.seed, fmt.Sprintf("%s#%d", instance, v)),
			instance: instance,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].instance < r.points[j].instance
	})
}

// remove takes instance's virtual nodes off the ring; its keys fall to
// their ring successors and no other key moves.
func (r *Ring) remove(instance string) {
	if !r.instances[instance] {
		return
	}
	delete(r.instances, instance)
	r.epoch++
	kept := r.points[:0]
	for _, p := range r.points {
		if p.instance != instance {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// clone returns an independent copy: membership planning computes the
// post-change layout on a clone, derives the moved key ranges against
// the live ring, migrates, and only then commits the change.
func (r *Ring) clone() *Ring {
	c := &Ring{
		vnodes:    r.vnodes,
		seed:      r.seed,
		points:    append([]ringPoint(nil), r.points...),
		instances: make(map[string]bool, len(r.instances)),
		epoch:     r.epoch,
	}
	for id := range r.instances {
		c.instances[id] = true
	}
	return c
}

// movedKeys reports, for each key whose owner differs between old and
// new, the (oldOwner -> newOwner) transfer as key -> newOwner. This is
// the migration work list for a membership change; the consistent-hash
// property (only keys adjacent to the changed instance's virtual nodes
// move, ≤ 1/N + ε of the key space per the rebalance property test)
// keeps it small.
func movedKeys(oldRing, newRing *Ring, keys []string) map[string]string {
	moved := make(map[string]string)
	for _, k := range keys {
		was, okOld := oldRing.Owner(k)
		now, okNew := newRing.Owner(k)
		if okNew && (!okOld || was != now) {
			moved[k] = now
		}
	}
	return moved
}

// ids returns the member instances in sorted order.
func (r *Ring) ids() []string {
	out := make([]string, 0, len(r.instances))
	for id := range r.instances {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Owner returns the instance owning key — the first virtual node at or
// clockwise after the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.at(key)].instance, true
}

// at returns the index of the first point at or after key's hash,
// wrapping at the top of the ring.
func (r *Ring) at(key string) int {
	h := fnv1a64(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// successors returns up to max distinct instances in ring order starting
// at key's owner — the failover candidate list for a submission.
func (r *Ring) successors(key string, max int) []string {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.instances) {
		max = len(r.instances)
	}
	out := make([]string, 0, max)
	seen := make(map[string]bool, max)
	for i, n := r.at(key), 0; n < len(r.points) && len(out) < max; i, n = (i+1)%len(r.points), n+1 {
		id := r.points[i].instance
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
