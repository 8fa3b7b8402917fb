// Package mem models the memory hierarchy the timing pipeline charges
// latencies against: set-associative L1 instruction and data caches, a
// unified L2, and instruction/data TLBs. Tag state only — data values live
// in the functional simulator. The hierarchy reports, for every access,
// the latency and which miss events occurred; those events are exactly the
// I-cache/D-cache/TLB miss bits a ProfileMe record captures.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int // cycles charged on a hit at this level
}

// validate reports a configuration problem, or nil.
func (c CacheConfig) validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("mem: %s: size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch stamp; larger is more recent
}

// Cache is a set-associative cache with LRU replacement. Not safe for
// concurrent use.
type Cache struct {
	cfg       CacheConfig
	sets      [][]line
	setMask   uint64
	lineShift uint
	stamp     uint64

	accesses uint64
	misses   uint64
}

// newCache returns an empty cache. It panics on an invalid configuration
// (configurations are static program data, not runtime input).
func newCache(cfg CacheConfig) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(numSets - 1), lineShift: shift}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) set(addr uint64) ([]line, uint64) {
	return c.sets[c.SetIndex(addr)], addr >> c.lineShift
}

// access looks up addr, filling the line on a miss (allocate-on-miss for
// both reads and writes). It returns true on a hit.
func (c *Cache) access(addr uint64) bool {
	c.accesses++
	c.stamp++
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			return true
		}
	}
	// Victim: first invalid way, else least recently used.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.misses++
	set[victim] = line{tag: tag, valid: true, lru: c.stamp}
	return false
}

// SetIndex returns the set number addr maps to: every lookup indexes
// through it, and a conflict analysis groups sampled miss addresses by it
// (runner's ExampleRunShard_missAddresses).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.lineShift) & c.setMask
}

// Stats returns cumulative accesses and misses.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// tlb is a fully-associative translation buffer with LRU replacement over
// page numbers. A hit costs no scan: the entry hit (or filled) last is
// checked first, then a hash index from page to entry — fixed bucket heads
// chained through the valid entries, so it never allocates. A miss still
// scans every entry for its victim, so replacement is the plain LRU.
type tlb struct {
	entries   []tlbEntry
	pageShift uint
	stamp     uint64
	accesses  uint64
	misses    uint64

	last      int32   // entry hit or filled last
	buckets   []int32 // page hash -> first entry of its chain, or -1
	hashShift uint    // 64 - log2(len(buckets))
}

type tlbEntry struct {
	page  uint64
	valid bool
	next  int32 // next valid entry in the same bucket, or -1
	lru   uint64
}

// newTLB returns a TLB with the given number of entries and page size.
// It panics when pageBytes is not a power of two or entries is not
// positive.
func newTLB(entries int, pageBytes int) *tlb {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("mem: bad TLB geometry: %d entries, %d-byte pages", entries, pageBytes))
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	t := &tlb{entries: make([]tlbEntry, entries), pageShift: shift, hashShift: 64}
	for n := 1; n < 2*entries; n <<= 1 {
		t.hashShift--
	}
	t.buckets = make([]int32, 1<<(64-t.hashShift))
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	return t
}

// bucket hashes a page number (Fibonacci hashing: consecutive pages
// spread across buckets).
func (t *tlb) bucket(page uint64) uint64 {
	return page * 0x9e3779b97f4a7c15 >> t.hashShift
}

// access translates addr, filling on a miss. It returns true on a hit.
func (t *tlb) access(addr uint64) bool {
	t.accesses++
	t.stamp++
	page := addr >> t.pageShift
	if e := &t.entries[t.last]; e.valid && e.page == page {
		e.lru = t.stamp
		return true
	}
	b := t.bucket(page)
	for i := t.buckets[b]; i >= 0; i = t.entries[i].next {
		if t.entries[i].page == page {
			t.entries[i].lru = t.stamp
			t.last = i
			return true
		}
	}
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.misses++
	if v := &t.entries[victim]; v.valid {
		// Unlink the evicted page from its chain.
		link := &t.buckets[t.bucket(v.page)]
		for int(*link) != victim {
			link = &t.entries[*link].next
		}
		*link = v.next
	}
	t.entries[victim] = tlbEntry{page: page, valid: true, next: t.buckets[b], lru: t.stamp}
	t.buckets[b] = int32(victim)
	t.last = int32(victim)
	return false
}
