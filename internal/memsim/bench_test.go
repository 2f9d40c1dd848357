package memsim

import "testing"

// BenchmarkCachedLoad measures the hot path: a load that hits in cache.
func BenchmarkCachedLoad(b *testing.B) {
	m := MustNew(DefaultConfig())
	r := m.Alloc("data", 4096)
	r.StoreU32(AccessData, 0, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadU32(AccessData, 0)
	}
}

// BenchmarkStreamingStores measures the miss/evict path: stores striding
// through a footprint larger than the cache.
func BenchmarkStreamingStores(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 10
	m := MustNew(cfg)
	elems := 1 << 18 // 1 MiB of u32, 16x the cache
	r := m.Alloc("data", elems*4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StoreU32(AccessData, (i*33)%elems, uint32(i))
	}
}

// BenchmarkFlushAll measures the checkpoint operation on a dirty cache.
func BenchmarkFlushAll(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := MustNew(cfg)
		r := m.Alloc("data", 256<<10)
		for e := 0; e < (256<<10)/4; e += 32 {
			r.StoreU32(AccessData, e, uint32(e))
		}
		b.StartTimer()
		m.FlushAll()
	}
}

// BenchmarkEpochFlush measures one serving epoch in the default 4 MiB
// cache: 64 lines dirtied, then the whole-cache drain. Its cost should
// track the dirty lines, not the cache size.
func BenchmarkEpochFlush(b *testing.B) {
	m := MustNew(DefaultConfig())
	r := m.Alloc("data", 64*128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < 64; e++ {
			r.StoreU32(AccessData, e*32, uint32(i))
		}
		if n := m.FlushAll(); n != 64 {
			b.Fatalf("FlushAll = %d lines, want 64", n)
		}
	}
}

// BenchmarkEvictStore measures the eviction path: one store per line over
// a footprint 16x a 256 KiB cache, so nearly every store evicts a dirty
// line.
func BenchmarkEvictStore(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	m := MustNew(cfg)
	r := m.Alloc("data", 16*cfg.CacheBytes)
	stride := cfg.LineSize / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < r.Size/4; e += stride {
			r.StoreU32(AccessData, e, uint32(i))
		}
	}
}

// BenchmarkPingPongLoad measures hits that alternate between two lines of
// different sets, the access shape of a tile loop reading an A and a B
// element per step.
func BenchmarkPingPongLoad(b *testing.B) {
	m := MustNew(DefaultConfig())
	r := m.Alloc("data", 1<<16)
	r.StoreU32(AccessData, 0, 1)
	r.StoreU32(AccessData, 1<<13, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadU32(AccessData, (i&1)<<13)
	}
}
