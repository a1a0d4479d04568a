package exec_test

import (
	"fmt"
	"testing"

	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/minicc"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// BenchmarkLoweredVsLegacy is the before/after of the dispatch tiers:
// the same instantiated PolyBench kernel invoked through the legacy
// re-scanning interpreter (the pre-refactor engine, preserved in
// legacy_oracle_test.go), through the lowered flat-dispatch loop, and
// through the fused superinstruction tier the runtime executes. The
// guard32 rows run wasm32 kernels — where a guard reservation is
// available they use the vmem guard-region backend, so guard32/fused is
// the full tentpole configuration the ≥2.5×-over-legacy target is
// measured on. Kernels free their allocations, so one
// instance serves every iteration and the delta is pure dispatch.
func BenchmarkLoweredVsLegacy(b *testing.B) {
	for _, kernel := range []string{"gemm", "jacobi-1d"} {
		k, err := polybench.ByName(kernel)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			name  string
			opts  codegen.Options
			feats core.Features
		}{
			{"guard32", codegen.Options{Wasm64: false}, core.Features{}},
			{"baseline64", codegen.Options{Wasm64: true}, core.Features{}},
			{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}, core.CageAll()},
		} {
			m, err := polybench.Build(k, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			n := uint64(k.TestN)

			b.Run(kernel+"/"+cfg.name+"/legacy", func(b *testing.B) {
				var ctr arch.Counter
				inst := newKernelInstance(b, m, cfg.feats, &ctr)
				lr, err := exec.NewLegacyRunner(inst)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := lr.Invoke("run", n); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(kernel+"/"+cfg.name+"/lowered", func(b *testing.B) {
				var ctr arch.Counter
				inst := newKernelInstance(b, m, cfg.feats, &ctr)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.Invoke("run", n); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(kernel+"/"+cfg.name+"/fused", func(b *testing.B) {
				prog, err := exec.LowerModule(m, exec.Config{Features: cfg.feats})
				if err != nil {
					b.Fatal(err)
				}
				var ctr arch.Counter
				inst := newFusedBenchInstance(b, m, cfg.feats, &ctr,
					fuse.Fuse(prog, nil))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.Invoke("run", n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCallOverhead is the before/after of the frame machine on
// call-dominated workloads: recursive fib (exponential call tree) and
// mutual recursion (deep alternating call chain), under the legacy
// recursive interpreter — which pays Go's call stack and a fresh
// locals/args/results allocation per call — and under the frame
// machine's contiguous-arena, zero-allocation call path. The
// benchmark's tiny-call workload prices the same path end to end.
func BenchmarkCallOverhead(b *testing.B) {
	// The kernels are the differential suite's call kernels
	// (callKernelSources, differential_test.go) minus "deep" — fib and
	// mutual are the overhead-dominated shapes worth timing.
	for _, k := range callKernelSources {
		if k.name == "deep" {
			continue
		}
		file, err := minicc.Parse(k.src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := minicc.Analyze(file, minicc.Layout64)
		if err != nil {
			b.Fatal(err)
		}
		m, err := codegen.Compile(prog, codegen.Options{Wasm64: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.name+"/legacy", func(b *testing.B) {
			inst, err := exec.NewInstance(m, exec.Config{})
			if err != nil {
				b.Fatal(err)
			}
			lr, err := exec.NewLegacyRunner(inst)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := lr.Invoke("run", k.arg)
				if err != nil {
					b.Fatal(err)
				}
				if res[0] != k.want {
					b.Fatalf("run(%d) = %d, want %d", k.arg, res[0], k.want)
				}
			}
		})
		b.Run(k.name+"/framemachine", func(b *testing.B) {
			inst, err := exec.NewInstance(m, exec.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := inst.Invoke("run", k.arg)
				if err != nil {
					b.Fatal(err)
				}
				if res[0] != k.want {
					b.Fatalf("run(%d) = %d, want %d", k.arg, res[0], k.want)
				}
			}
		})
	}
}

// BenchmarkForkByImageSize re-runs the measurement behind having one
// install leg: close + NewInstance(Config{Snapshot}) of a 101-page
// (6.6 MB) memory under full — the pool's module switch on the one
// sandbox tag — by how many pages the image had written, the fork then
// writing to 1 or 64 pages. At e7064fc (2-vCPU Xeon, -benchtime=2000x)
// the span copy that remains took 1.8 / 4.6 / 102 / 738 µs for images of
// 0 / 16 / 256 / 1616 written pages at 1 touched page (+ 6 µs at 64),
// and the copy-on-write leg deleted there (the image in a sealed file,
// mapped MAP_PRIVATE per fork) 10–19 µs at 1 touched page and 89–97 µs
// at 64, whatever the image (≈ 10 µs + 1.2 µs per page the fork touches,
// a fault each): the crossover is ≈ 25 written image pages, and every
// module in the repo and the benchmark captures 1. The rule this
// supports: a second install leg needs a benchmark workload whose image
// is past the crossover first, and is then selected from the image's
// size — never by a build tag or an option.
func BenchmarkForkByImageSize(b *testing.B) {
	m := &wasm.Module{Mems: []wasm.MemoryType{{Limits: wasm.Limits{Min: 101, Max: 128, HasMax: true}, Memory64: true}}}
	for _, written := range []uint64{0, 16, 256, 1616} {
		for _, touched := range []uint64{1, 64} {
			b.Run(fmt.Sprintf("image=%dp/touch=%dp", written, touched), func(b *testing.B) {
				cfg := exec.Config{Features: core.CageAll(), Sandboxes: core.NewSandboxAllocator(core.NewPolicy(core.CageAll()))}
				inst, err := exec.NewInstance(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for p := uint64(0); p < written; p++ {
					if err := inst.WriteU64(p*4096, p+1); err != nil {
						b.Fatal(err)
					}
				}
				if cfg.Snapshot, err = inst.Snapshot(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.Close()
					if inst, err = exec.NewInstance(m, cfg); err != nil {
						b.Fatal(err)
					}
					for p := uint64(0); p < touched; p++ {
						if err := inst.WriteU64(p*25*4096, 7); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				inst.Close()
			})
		}
	}
}
