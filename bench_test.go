package cage

// Benchmark harness: one testing.B target per table/figure of the
// paper's evaluation, plus wall-clock microbenchmarks of the simulation
// substrates themselves. The paper-shaped numbers (modeled milliseconds
// on the three Tensor G3 cores, overhead percentages) are emitted as
// custom benchmark metrics; `go test -bench . -benchmem` regenerates
// everything.

import (
	"context"
	"io"
	"strings"
	"testing"

	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/bench"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// BenchmarkTable1_InstCycles regenerates paper Table 1: MTE/PAC
// instruction throughput (instructions/cycle) and latency (cycles) on
// the three cores.
func BenchmarkTable1_InstCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range arch.Cores() {
			_ = c.MeasureAll(1_000_000)
		}
	}
	x3 := arch.NewCortexX3()
	b.ReportMetric(x3.MeasureThroughput(arch.IRG, 1_000_000), "X3-irg-ipc")
	b.ReportMetric(x3.MeasureLatency(arch.PACDA, 1_000_000), "X3-pacda-lat")
	a510 := arch.NewCortexA510()
	b.ReportMetric(a510.MeasureLatency(arch.AUTDA, 1_000_000), "A510-autda-lat")
}

// BenchmarkFig4_MTEModes regenerates paper Fig. 4: a 128 MiB memset with
// MTE disabled / asynchronous / synchronous.
func BenchmarkFig4_MTEModes(b *testing.B) {
	var rows []bench.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig4Rows()
	}
	for _, r := range rows {
		b.ReportMetric(r.NoneMs, r.Core+"-none-ms")
		b.ReportMetric(r.SyncMs, r.Core+"-sync-ms")
		b.ReportMetric(r.AsyncMs, r.Core+"-async-ms")
	}
}

// BenchmarkTable2_CVEMitigation regenerates paper Table 2: every CVE
// analog is exploited on the baseline and trapped under Cage.
func BenchmarkTable2_CVEMitigation(b *testing.B) {
	var rows []bench.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table2Rows()
		if err != nil {
			b.Fatal(err)
		}
	}
	mitigated := 0
	for _, r := range rows {
		if r.CageTrapped && r.BaselineDamage != 0 {
			mitigated++
		}
	}
	b.ReportMetric(float64(mitigated), "mitigated-CVEs")
}

// BenchmarkFig14_PolyBench regenerates paper Fig. 14: the PolyBench/C
// suite across the six Table 3 variants, priced on the three cores.
// Means are normalized to the wasm64 baseline = 100.
func BenchmarkFig14_PolyBench(b *testing.B) {
	var res *bench.Fig14Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunFig14(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range []string{"baseline wasm32", "Cage-mem-safety", "Cage-sandboxing", "Cage"} {
		for _, c := range res.Cores {
			name := strings.ReplaceAll(v, " ", "-") + "@" + c
			b.ReportMetric(res.MeanPct[v][c], name)
		}
	}
}

// BenchmarkFig15_PtrAuth regenerates paper Fig. 15: static vs dynamic vs
// authenticated dynamic calls on the modified 2mm (kernel region only),
// normalized to static = 100.
func BenchmarkFig15_PtrAuth(b *testing.B) {
	var res *bench.Fig15Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunFig15(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []string{"dynamic", "ptr-auth"} {
		for _, c := range res.Cores {
			b.ReportMetric(res.Pct[mode][c], mode+"@"+c)
		}
	}
}

// BenchmarkFig16_TagInit regenerates paper Table 4 / Fig. 16: the
// tagged-memory initialization variants over 128 MiB.
func BenchmarkFig16_TagInit(b *testing.B) {
	var cells []bench.Fig16Cell
	for i := 0; i < b.N; i++ {
		cells = bench.Fig16Cells()
	}
	for _, c := range cells {
		if c.Core == "Cortex-X3" {
			b.ReportMetric(c.Ms, c.Variant.String()+"-ms")
		}
	}
}

// BenchmarkStartup regenerates the §7.2 startup experiment: instantiate
// a 128 MiB module under MTE sandboxing and call an empty export.
func BenchmarkStartup(b *testing.B) {
	var res *bench.StartupResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunStartup()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.GranulesTagged), "granules")
	b.ReportMetric(res.TaggingMs["Cortex-X3"], "X3-tagging-ms")
}

// BenchmarkMemoryOverhead regenerates the §7.3 accounting.
func BenchmarkMemoryOverhead(b *testing.B) {
	var res *bench.MemoryResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunMemoryOverhead(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Total, "total-overhead-pct")
	b.ReportMetric(100*res.TagStorage, "tag-storage-pct")
}

// --- Substrate wall-clock microbenchmarks ---

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
		eng := NewEngine(Baseline64())
		defer eng.Close()
		hm, err := eng.NewHostModule("env")
		if err != nil {
			b.Fatal(err)
		}
		register(hm)
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

// BenchmarkReportAll exercises the whole harness once per iteration,
// discarding output; it is the cage-bench CLI's hot path.
func BenchmarkReportAll(b *testing.B) {
	if testing.Short() {
		b.Skip("full harness")
	}
	for i := 0; i < b.N; i++ {
		if err := bench.RunAll(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}
