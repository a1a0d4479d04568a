package cage

// Wall-clock microbenchmarks of the simulation substrates: the engine,
// the compiler, the allocator, PAC and MTE. The paper's tables and
// figures are not benchmarks: cage-bench writes them as one
// deterministic document, BENCH_paper.txt, which internal/bench's
// TestPaperDocument pins.

import (
	"context"
	"testing"

	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// BenchmarkEngineGemm measures raw engine throughput on gemm under the
// baseline and the full Cage configuration.
func BenchmarkEngineGemm(b *testing.B) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts codegen.Options, feats core.Features) {
		m, err := polybench.Build(k, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := polybench.RunModule(m, k.TestN, feats, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline64", func(b *testing.B) {
		run(b, codegen.Options{Wasm64: true}, core.Features{})
	})
	b.Run("full-cage", func(b *testing.B) {
		run(b, codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}, core.CageAll())
	})
}

// BenchmarkEngineInstancing compares the per-invocation cost of a fresh
// Runtime.Instantiate against Engine's pooled recycling on a PolyBench
// kernel under full Cage. Fresh instantiation pays validation, import
// resolution, function precompilation, memory allocation, and
// whole-memory tagging (§7.2) every call; the pooled path pays a reset.
func BenchmarkEngineInstancing(b *testing.B) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	raw, err := polybench.Build(k, codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true})
	if err != nil {
		b.Fatal(err)
	}
	mod := &Module{wasm: raw}
	cfg := FullHardening()
	// Small problem size: the short-lived-invocation regime where the
	// §7.2 startup costs dominate and pooling pays off most.
	n := uint64(4)

	b.Run("fresh-instantiate", func(b *testing.B) {
		rt := NewRuntime(cfg)
		for i := 0; i < b.N; i++ {
			inst, err := rt.Instantiate(mod)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := inst.Invoke("run", n); err != nil {
				b.Fatal(err)
			}
			inst.Close()
		}
	})
	b.Run("engine-pooled", func(b *testing.B) {
		eng := NewEngine(cfg)
		defer eng.Close()
		ctx, args := context.Background(), []uint64{n}
		if _, err := eng.Call(ctx, mod, "run", args); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Call(ctx, mod, "run", args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineRotate prices a birth from an image: four
// single-function modules called round-robin through CallWith under
// FullHardening, whose §7.4 budget is one tag. No checkout is an idle
// hit — each reclaims the sibling instance holding the tag and spawns
// one for its own module from the registered snapshot — so the loop is
// close + fork + call + checkin. It is the in-process twin of the
// rotate-full benchmark workload.
func BenchmarkEngineRotate(b *testing.B) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mods := rotateModules(b, eng)
	ctx := context.Background()
	args := []uint64{3, 4}
	spec := CallSpec{Results: make([]uint64, 1)}
	for _, m := range mods { // build every pool and capture every image
		if _, err := eng.CallWith(ctx, m, "add", args, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(mods)
		res, err := eng.CallWith(ctx, mods[k], "add", args, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Values[0] != uint64(3+4+k+1) {
			b.Fatalf("module %d: add = %d", k, res.Values[0])
		}
	}
}

// BenchmarkEngineCompileCached measures the module cache: the first
// CompileSource pays the full toolchain, every later one is a hash
// lookup.
func BenchmarkEngineCompileCached(b *testing.B) {
	k, err := polybench.ByName("2mm")
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(FullHardening())
	defer eng.Close()
	if _, err := eng.CompileSource(k.Source); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CompileSource(k.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiler measures toolchain throughput end to end.
func BenchmarkCompiler(b *testing.B) {
	k, err := polybench.ByName("2mm")
	if err != nil {
		b.Fatal(err)
	}
	opts := codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}
	for i := 0; i < b.N; i++ {
		if _, err := polybench.Build(k, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocator measures hardened malloc/free pairs.
func BenchmarkAllocator(b *testing.B) {
	m := &wasm.Module{}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 16, Max: 256, HasMax: true}, Memory64: true}}
	for _, hardened := range []struct {
		name string
		feat core.Features
	}{
		{"baseline", core.Features{}},
		{"hardened", core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
	} {
		b.Run(hardened.name, func(b *testing.B) {
			inst, err := exec.NewInstance(m, exec.Config{Features: hardened.feat, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			a, err := alloc.New(inst, 4096)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := a.Malloc(64)
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Free(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPACSignAuth measures the simulated PAC primitives.
func BenchmarkPACSignAuth(b *testing.B) {
	cfg := pac.DefaultConfig
	key := pac.KeyFromSeed(1)
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cfg.Sign(uint64(i)<<4, 42, key)
		}
	})
	b.Run("auth", func(b *testing.B) {
		signed := cfg.Sign(0x8650, 42, key)
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Auth(signed, 42, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMTETagOps measures the simulated tag memory.
func BenchmarkMTETagOps(b *testing.B) {
	mem := mte.NewMemory(1<<20, mte.ModeSync)
	b.Run("set-tag-range-4k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mem.SetTagRange(0, 4096, uint8(i%15+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check-access", func(b *testing.B) {
		if err := mem.SetTagRange(0, 4096, 5); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := mem.CheckAccess(uint64(i%4000), 8, 5, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHostCall prices one guest→host crossing through the public
// host-module API: the typed adapter (signature derived from the Go
// function, args marshalled) against the raw slot (uint64 bits
// straight through). Each iteration runs a guest loop of `calls` host
// calls on a checked-out pooled instance, so the ns/hostcall metric
// isolates the crossing from pool and dispatch overhead.
func BenchmarkHostCall(b *testing.B) {
	const src = `
		extern long host_add(long a, long b);
		long run(long n) {
		    long s = 0;
		    for (long i = 0; i < n; i++) { s = host_add(s, i); }
		    return s;
		}`
	const calls = 1024
	run := func(b *testing.B, register func(hm *HostModule)) {
		hm := NewHostModule("env")
		register(hm)
		eng := engineWith(Baseline64(), hm)
		defer eng.Close()
		mod, err := eng.CompileSource(src)
		if err != nil {
			b.Fatal(err)
		}
		err = eng.WithInstance(mod, func(inst *Instance) error {
			want := uint64(calls * (calls - 1) / 2)
			res, err := inst.Call(context.Background(), "run", []uint64{calls})
			if err != nil {
				return err
			}
			if res.Values[0] != want {
				b.Fatalf("host add sum = %d, want %d", res.Values[0], want)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Call(context.Background(), "run", []uint64{calls}); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/calls, "ns/hostcall")
	}
	b.Run("typed", func(b *testing.B) {
		run(b, func(hm *HostModule) {
			HostFunc2(hm, "host_add", func(_ *HostContext, a, x int64) (int64, error) {
				return a + x, nil
			})
		})
	})
	b.Run("raw", func(b *testing.B) {
		run(b, func(hm *HostModule) {
			hm.Func("host_add",
				FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}},
				func(_ *HostContext, args []uint64) ([]uint64, error) {
					return []uint64{args[0] + args[1]}, nil
				})
		})
	})
}
