package engine

import (
	"context"
	"testing"
)

// The fast-path benchmarks double as regression gates for the two
// properties the serve layer depends on: a cache hit and a pool
// checkout/checkin pair take no locks and allocate nothing.

type benchInst struct{}

func (benchInst) Reset(seed uint64) error { return nil }
func (benchInst) Close() error            { return nil }

func benchCache(b *testing.B, parallel bool) {
	var c Cache[int]
	k := KeyOfString("bench", "hit")
	if _, err := c.GetOrBuild(k, func() (int, error) { return 42, nil }); err != nil {
		b.Fatal(err)
	}
	build := func() (int, error) { return 0, nil }
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if v, _ := c.GetOrBuild(k, build); v != 42 {
					panic("bad value")
				}
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		if v, _ := c.GetOrBuild(k, build); v != 42 {
			b.Fatal("bad value")
		}
	}
}

func BenchmarkCacheHit(b *testing.B)         { benchCache(b, false) }
func BenchmarkCacheHitParallel(b *testing.B) { benchCache(b, true) }

func benchPool(b *testing.B, parallel bool) {
	p := NewPool(64, func(ctx context.Context) (Resetter, error) {
		return benchInst{}, nil
	})
	// Pre-warm so the timed loop is pure checkout/checkin.
	warm := make([]Resetter, 16)
	for i := range warm {
		inst, err := p.Get()
		if err != nil {
			b.Fatal(err)
		}
		warm[i] = inst
	}
	for _, inst := range warm {
		p.Put(inst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				inst, err := p.Get()
				if err != nil {
					panic(err)
				}
				p.Put(inst)
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		inst, err := p.Get()
		if err != nil {
			b.Fatal(err)
		}
		p.Put(inst)
	}
}

func BenchmarkPoolGetPut(b *testing.B)         { benchPool(b, false) }
func BenchmarkPoolGetPutParallel(b *testing.B) { benchPool(b, true) }

// TestFastPathsZeroAlloc pins the lock-free fast paths at zero
// allocations per operation (the benchmarks report it; this gates it).
func TestFastPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var c Cache[int]
	k := KeyOfString("alloc", "gate")
	if _, err := c.GetOrBuild(k, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	build := func() (int, error) { return 0, nil }
	if n := testing.AllocsPerRun(1000, func() {
		if v, _ := c.GetOrBuild(k, build); v != 7 {
			panic("bad value")
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %v/op, want 0", n)
	}

	p := NewPool(4, func(ctx context.Context) (Resetter, error) {
		return benchInst{}, nil
	})
	inst, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(inst)
	if n := testing.AllocsPerRun(1000, func() {
		inst, err := p.Get()
		if err != nil {
			panic(err)
		}
		p.Put(inst)
	}); n != 0 {
		t.Fatalf("pool checkout/checkin allocates %v/op, want 0", n)
	}
}
