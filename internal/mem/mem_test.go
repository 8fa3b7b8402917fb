package mem

import (
	"testing"
	"testing/quick"

	"profileme/internal/stats"
)

func smallCache() *Cache {
	return newCache(CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 1})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.access(0x100) {
		t.Fatal("cold access hit")
	}
	if !c.access(0x100) {
		t.Fatal("second access missed")
	}
	if !c.access(0x13f) {
		t.Fatal("same-line access missed")
	}
	if c.access(0x140) {
		t.Fatal("next line should miss")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Fatalf("stats = %d/%d", miss, acc)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1024 B, 64 B lines, 2-way => 8 sets. Addresses 512 B apart share a set.
	c := smallCache()
	const stride = 512
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.access(a) // miss, fill way0
	c.access(b) // miss, fill way1
	c.access(a) // hit, a most recent
	c.access(d) // miss, evicts b (LRU)
	if !c.access(a) {
		t.Fatal("a should still be resident")
	}
	if c.access(b) {
		t.Fatal("b should have been evicted")
	}
}

// probe reports whether addr currently hits, without updating any state:
// the tests' side-effect-free oracle for what Access left behind.
func (c *Cache) probe(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func TestCacheProbeDoesNotFill(t *testing.T) {
	c := smallCache()
	if c.probe(0x40) {
		t.Fatal("probe hit on empty cache")
	}
	if c.access(0x40) {
		t.Fatal("access after probe should still miss")
	}
	if !c.probe(0x40) {
		t.Fatal("probe should hit after fill")
	}
}

func TestCacheSetIndex(t *testing.T) {
	c := smallCache() // 8 sets, 64B lines
	if c.SetIndex(0) != 0 || c.SetIndex(64) != 1 || c.SetIndex(512) != 0 {
		t.Fatal("set index math wrong")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{Name: "b", SizeBytes: 1024, LineBytes: 48, Assoc: 2},
		{Name: "c", SizeBytes: 1000, LineBytes: 64, Assoc: 2},
		{Name: "d", SizeBytes: 64 * 2 * 3, LineBytes: 64, Assoc: 2}, // 3 sets
	}
	for _, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: invalid config accepted", cfg.Name)
		}
	}
	good := CacheConfig{Name: "g", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set smaller than the cache reaches a 100% steady-state
	// hit rate; one larger than the cache with a marching access pattern
	// misses every line.
	c := newCache(CacheConfig{Name: "t", SizeBytes: 4096, LineBytes: 64, Assoc: 4, HitLatency: 1})
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			hit := c.access(addr)
			if pass > 0 && !hit {
				t.Fatalf("pass %d: addr %#x missed in fitting working set", pass, addr)
			}
		}
	}

	big := newCache(CacheConfig{Name: "t2", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 1})
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			if big.access(addr) && pass > 0 {
				// LRU with a sequential sweep over 4x capacity never hits.
				t.Fatalf("pass %d: addr %#x unexpectedly hit", pass, addr)
			}
		}
	}
}

func TestCacheMissRate(t *testing.T) {
	c := smallCache()
	if a, m := c.Stats(); a != 0 || m != 0 {
		t.Fatalf("idle cache counts %d accesses, %d misses", a, m)
	}
	c.access(0x0)
	c.access(0x0)
	if a, m := c.Stats(); a != 2 || m != 1 {
		t.Fatalf("a miss then a hit count %d accesses, %d misses", a, m)
	}
}

func TestCachePropertyProbeConsistentWithAccess(t *testing.T) {
	// After Access(a), Probe(a) must hit until >= assoc distinct
	// conflicting lines are accessed.
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := smallCache()
		addrs := make([]uint64, 200)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1 << 14))
		}
		for _, a := range addrs {
			c.access(a)
			if !c.probe(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := newTLB(4, 8192)
	if tlb.access(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.access(8191) {
		t.Fatal("same page missed")
	}
	if tlb.access(8192) {
		t.Fatal("next page hit")
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := newTLB(2, 4096)
	tlb.access(0 * 4096)
	tlb.access(1 * 4096)
	tlb.access(0 * 4096) // page 0 most recent
	tlb.access(2 * 4096) // evicts page 1
	if !tlb.access(0) {
		t.Fatal("page 0 evicted")
	}
	if tlb.access(1 * 4096) {
		t.Fatal("page 1 survived")
	}
}

func TestTLBPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad TLB geometry accepted")
		}
	}()
	newTLB(4, 3000)
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)

	// Cold access: TLB miss + L1 miss + L2 miss.
	r := h.Data(0x10000)
	if !r.TLBMiss || !r.L1Miss || !r.L2Miss {
		t.Fatalf("cold access events = %+v", r)
	}
	want := cfg.TLBPenalty + cfg.DCache.HitLatency + cfg.L2Latency + cfg.MemLatency
	if r.Latency != want {
		t.Fatalf("cold latency = %d, want %d", r.Latency, want)
	}

	// Warm access: everything hits.
	r = h.Data(0x10000)
	if r.TLBMiss || r.L1Miss || r.L2Miss {
		t.Fatalf("warm access events = %+v", r)
	}
	if r.Latency != cfg.DCache.HitLatency {
		t.Fatalf("warm latency = %d", r.Latency)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.Data(0x2000) // fill everything

	// Evict the L1 line by walking addresses that map to its set while
	// staying inside L2. L1 is 64KB 2-way: lines 32KB apart conflict.
	for i := 1; i <= 4; i++ {
		h.Data(0x2000 + uint64(i)*32<<10)
	}
	r := h.Data(0x2000)
	if !r.L1Miss || r.L2Miss {
		t.Fatalf("expected L1 miss, L2 hit: %+v", r)
	}
	if r.Latency != cfg.DCache.HitLatency+cfg.L2Latency {
		t.Fatalf("L2-hit latency = %d", r.Latency)
	}
}

func TestHierarchyFetchSeparateFromData(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Fetch(0x4000)
	// Data access to the same address must still cold-miss: separate L1s
	// (but shares L2, so only the L1/D-TLB miss).
	r := h.Data(0x4000)
	if !r.L1Miss {
		t.Fatal("D-cache should not be warmed by I-fetch")
	}
	if r.L2Miss {
		t.Fatal("L2 is unified; the fetch should have warmed it")
	}
}

func TestHierarchyDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	for _, cc := range []CacheConfig{cfg.ICache, cfg.DCache, cfg.L2} {
		if err := cc.validate(); err != nil {
			t.Errorf("default %s invalid: %v", cc.Name, err)
		}
	}
}
