package mem

// Config describes a full memory hierarchy. The defaults (see
// DefaultConfig) are sized like the Alpha 21264's on-chip caches backed by
// a board-level cache.
type Config struct {
	ICache CacheConfig
	DCache CacheConfig
	L2     CacheConfig

	TLBEntries int
	PageBytes  int

	L2Latency  int // additional cycles for an L1 miss that hits in L2
	MemLatency int // additional cycles for an L2 miss
	TLBPenalty int // cycles for a software TLB fill
}

// DefaultConfig returns the 21264-flavoured hierarchy used throughout the
// experiments: 64 KB 2-way L1s, 1 MB 8-way L2, 128-entry TLBs, 8 KB pages.
func DefaultConfig() Config {
	return Config{
		ICache:     CacheConfig{Name: "icache", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1},
		DCache:     CacheConfig{Name: "dcache", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 3},
		L2:         CacheConfig{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8, HitLatency: 12},
		TLBEntries: 128,
		PageBytes:  8 << 10,
		L2Latency:  12,
		MemLatency: 80,
		TLBPenalty: 30,
	}
}

// Result describes what happened on one access: the total latency in
// cycles and which miss events occurred. The event bits map one-to-one
// onto ProfileMe event-register bits.
type Result struct {
	Latency int
	L1Miss  bool
	L2Miss  bool
	TLBMiss bool
}

// Hierarchy glues the caches and TLBs together and charges latencies.
type Hierarchy struct {
	cfg    Config
	icache *Cache
	dcache *Cache
	l2     *Cache
	itlb   *tlb
	dtlb   *tlb
}

// NewHierarchy builds the hierarchy described by cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		icache: newCache(cfg.ICache),
		dcache: newCache(cfg.DCache),
		l2:     newCache(cfg.L2),
		itlb:   newTLB(cfg.TLBEntries, cfg.PageBytes),
		dtlb:   newTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

// ICache returns the instruction cache (read-only introspection).
func (h *Hierarchy) ICache() *Cache { return h.icache }

// DCache returns the data cache (read-only introspection).
func (h *Hierarchy) DCache() *Cache { return h.dcache }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Fetch performs an instruction fetch at pc and returns the outcome.
func (h *Hierarchy) Fetch(pc uint64) Result {
	return h.access(h.itlb, h.icache, pc)
}

// Data performs a data access at addr and returns the outcome. Stores and
// loads are treated alike for tag state (write-allocate).
func (h *Hierarchy) Data(addr uint64) Result {
	return h.access(h.dtlb, h.dcache, addr)
}

func (h *Hierarchy) access(tb *tlb, l1 *Cache, addr uint64) Result {
	var r Result
	if !tb.access(addr) {
		r.TLBMiss = true
		r.Latency += h.cfg.TLBPenalty
	}
	r.Latency += l1.Config().HitLatency
	if l1.access(addr) {
		return r
	}
	r.L1Miss = true
	r.Latency += h.cfg.L2Latency
	if h.l2.access(addr) {
		return r
	}
	r.L2Miss = true
	r.Latency += h.cfg.MemLatency
	return r
}
