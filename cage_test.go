package cage

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
)

const quickProgram = `
extern char* malloc(long n);
extern void free(char* p);
extern void print_str(char* s, long n);

long sum(long n) {
    long* a = (long*)malloc(n * 8);
    long s = 0;
    for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
    free((char*)a);
    return s;
}

long uaf(void) {
    long* a = (long*)malloc(32);
    a[0] = 9;
    free((char*)a);
    return a[0];
}

void greet(void) {
    print_str("hi from wasm", 12);
}
`

func TestToolchainAndRuntimeEndToEnd(t *testing.T) {
	for _, cfg := range []Config{
		Baseline32(), Baseline64(), MemorySafetyOnly(),
		PointerAuthOnly(), SandboxingOnly(), FullHardening(),
	} {
		mod, err := NewToolchain(cfg).CompileSource(quickProgram)
		if err != nil {
			t.Fatalf("%+v: compile: %v", cfg, err)
		}
		inst, err := NewRuntime(cfg).Instantiate(mod)
		if err != nil {
			t.Fatalf("%+v: instantiate: %v", cfg, err)
		}
		res, err := inst.Invoke("sum", 100)
		if err != nil {
			t.Fatalf("%+v: sum: %v", cfg, err)
		}
		if res[0] != 4950 {
			t.Errorf("%+v: sum = %d", cfg, res[0])
		}
	}
}

func TestUAFTrapsOnlyWhenHardened(t *testing.T) {
	run := func(cfg Config) error {
		mod, err := NewToolchain(cfg).CompileSource(quickProgram)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewRuntime(cfg).Instantiate(mod)
		if err != nil {
			t.Fatal(err)
		}
		_, err = inst.Invoke("uaf")
		return err
	}
	if err := run(Baseline64()); err != nil {
		t.Errorf("baseline UAF trapped: %v", err)
	}
	err := run(FullHardening())
	if err == nil {
		t.Fatal("hardened UAF not caught")
	}
	if !IsMemorySafetyViolation(err) {
		t.Errorf("wrong classification: %v", err)
	}
	if IsAuthFailure(err) {
		t.Error("UAF misclassified as auth failure")
	}
}

func TestModuleBinaryRoundTrip(t *testing.T) {
	cfg := FullHardening()
	mod, err := NewToolchain(cfg).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := mod.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewRuntime(cfg).Instantiate(back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("sum", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 45 {
		t.Errorf("round-tripped sum = %d", res[0])
	}
	if _, err := DecodeModule([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
}

func TestStdioRouting(t *testing.T) {
	cfg := FullHardening()
	mod, err := NewToolchain(cfg).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	var out bytes.Buffer
	rt.SetStdio(&out, &out)
	inst, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("greet"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hi from wasm") {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestSharedRuntimeSandboxLimit(t *testing.T) {
	cfg := SandboxingOnly()
	mod, err := NewToolchain(cfg).CompileSource(`long f(void) { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	for i := 0; i < 15; i++ {
		if _, err := rt.Instantiate(mod); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if _, err := rt.Instantiate(mod); err == nil {
		t.Error("16th sandbox accepted (paper limit: 15 per process)")
	}
}

func TestCrossInstancePointerReuse(t *testing.T) {
	// Paper §4.2: a signed pointer leaked from one instance must not
	// authenticate in another instance of the same process.
	cfg := PointerAuthOnly()
	src := `
long make(void) { return (long)__builtin_pointer_sign((char*)4096); }
long use(long p) { return (long)__builtin_pointer_auth((char*)p); }`
	mod, err := NewToolchain(cfg).CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	i1, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := i1.Invoke("make")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := i1.Invoke("use", signed[0]); err != nil {
		t.Errorf("same-instance auth failed: %v", err)
	}
	if _, err := i2.Invoke("use", signed[0]); !IsAuthFailure(err) {
		t.Errorf("cross-instance reuse: got %v, want auth failure", err)
	}
}

func TestInvokeF64(t *testing.T) {
	cfg := Baseline64()
	mod, err := NewToolchain(cfg).CompileSource(`double half(long x) { return (double)x / 2.0; }`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewRuntime(cfg).Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	v, err := inst.InvokeF64("half", 7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3.5 {
		t.Errorf("half(7) = %v", v)
	}
}

func TestExtendedSandboxesLiftTheLimit(t *testing.T) {
	// Paper §6.4 (future work): combining guard pages with memory
	// tagging allows tag reuse across disjoint address ranges, scaling
	// past 15 sandboxes.
	cfg := SandboxingOnly()
	mod, err := NewToolchain(cfg).CompileSource(`
long poke(long addr) { long* p = (long*)addr; return *p; }
long f(long x) { return x * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	rt.EnableExtendedSandboxes()
	var insts []*Instance
	for i := 0; i < 40; i++ {
		inst, err := rt.Instantiate(mod)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		insts = append(insts, inst)
	}
	// Every instance still works and still cannot escape.
	for i, inst := range insts {
		res, err := inst.Invoke("f", uint64(i))
		if err != nil || res[0] != uint64(i*2) {
			t.Fatalf("instance %d compute: %v", i, err)
		}
		if _, err := inst.Invoke("poke", 1<<30); err == nil {
			t.Fatalf("instance %d escaped its sandbox", i)
		}
	}
}

// TestLoweredProgramCacheHitAllocs: every instance birth asks for the
// module's lowered program, and on a hit that must cost what spelling
// the cache key costs — the variant string of the lowering config —
// and nothing else.
func TestLoweredProgramCacheHitAllocs(t *testing.T) {
	if raceTestEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	cfg := FullHardening()
	mod, err := NewToolchain(cfg).CompileSource("long add(long a, long b) { return a + b; }")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	ecfg := exec.Config{Features: cfg.features()}
	first, err := rt.loweredProgram(mod, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	const hits = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if p, err := rt.loweredProgram(mod, ecfg); err != nil || p != first {
			t.Fatalf("hit %d: program %p, %v; want the cached %p", i, p, err, first)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / hits; per >= 512 {
		t.Errorf("a program-cache hit allocates %d bytes, want < 512", per)
	}
	if st := rt.ProgramCacheStats(); st.Misses != 1 || st.Hits < hits {
		t.Errorf("program cache: %d misses, %d hits; want 1 and at least %d", st.Misses, st.Hits, hits)
	}
}

// TestRuntimeExecutesExhaustiveFusion: the program an instance runs is
// the fuse pass's whole output — instruction for instruction what
// fuse.Fuse makes of the lowered module, the program every differential
// suite and FuzzFuse test. It fails if anything between Instantiate and
// the pass vetoes a shape. baseline32 is the row where the generic
// multi-ALU shapes carry a third of the dispatches.
func TestRuntimeExecutesExhaustiveFusion(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"full", "baseline32"} {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewToolchain(cfg).CompileSource(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inst, err := NewRuntime(cfg).Instantiate(mod)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := inst.Raw().Program()
		lowered, err := ir.Lower(mod.wasm, exec.LowerConfig(mod.wasm, exec.Config{Features: cfg.features()}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := fuse.Fuse(lowered, nil)
		if !got.Fused || len(got.Funcs) != len(want.Funcs) {
			t.Fatalf("%s: Fused = %v, %d funcs; want fused, %d funcs", name, got.Fused, len(got.Funcs), len(want.Funcs))
		}
		for f := range want.Funcs {
			if !reflect.DeepEqual(got.Funcs[f].Code, want.Funcs[f].Code) {
				t.Errorf("%s: func %d: the runtime's code differs from fuse.Fuse's (%d vs %d instructions)",
					name, f, len(got.Funcs[f].Code), len(want.Funcs[f].Code))
			}
		}
		inst.Close()
	}
}
