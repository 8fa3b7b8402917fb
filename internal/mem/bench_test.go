package mem

import "testing"

func BenchmarkCacheAccessHit(b *testing.B) {
	c := newCache(DefaultConfig().DCache)
	c.access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(0x1000)
	}
}

func BenchmarkCacheAccessMissStream(b *testing.B) {
	c := newCache(DefaultConfig().DCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(uint64(i) * 64)
	}
}

func BenchmarkHierarchyData(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(uint64(i%4096) * 8)
	}
}
