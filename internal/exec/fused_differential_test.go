package exec_test

// Differential tests for the fused dispatch tier: a program rewritten
// by the superinstruction pass (internal/fuse) must be observationally
// identical to its unfused twin — same results, same trap codes, and
// the same timing-model event stream — on every configuration preset,
// Spectre-hardened included. Together with the legacy-oracle suite in
// differential_test.go this pins the full three-tier tower: legacy ≡
// unfused ≡ fused.

import (
	"context"
	"errors"
	"testing"

	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/minicc"
	"cage/internal/mte"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// dispatchConfigs are the presets the fused tier must be bit-identical
// on: the seven presets of cage.ConfigByName. baseline32 is where the
// generic multi-ALU shapes do the work (a third of its dispatches, under
// 1.5 % of full's: 32-bit tuples have no idiom or indexed load); it runs on the guard reservation or on bounds-checked heap
// memory, whichever vmem.Supported() grants.
var dispatchConfigs = []struct {
	name  string
	opts  codegen.Options
	feats core.Features
}{
	{"baseline32", codegen.Options{Wasm64: false}, core.Features{}},
	{"baseline64", codegen.Options{Wasm64: true}, core.Features{}},
	{"memsafety", codegen.Options{Wasm64: true, StackSanitizer: true},
		core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
	{"sandbox", codegen.Options{Wasm64: true},
		core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
	{"ptrauth", codegen.Options{Wasm64: true, PtrAuth: true},
		core.Features{PtrAuth: true, MTEMode: mte.ModeSync}},
	{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
		core.CageAll()},
	{"hardened", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
		hardenedFeatures()},
}

// newFusedKernelInstance is newKernelInstance with the module's lowered
// program fused exhaustively before instantiation.
func newFusedKernelInstance(t testing.TB, m *wasm.Module, feats core.Features, ctr *arch.Counter) *exec.Instance {
	t.Helper()
	prog, err := exec.LowerModule(m, exec.Config{Features: feats})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return newFusedBenchInstance(t, m, feats, ctr, fuse.Fuse(prog, nil))
}

// kernelInstance instantiates m against the polybench host modules and
// binds the hardened allocator after birth; a nil prog lowers privately.
func kernelInstance(m *wasm.Module, feats core.Features, ctr *arch.Counter, prog *ir.Program) (*exec.Instance, error) {
	host := &alloc.Host{}
	inst, err := exec.NewInstance(m, exec.Config{
		Features: feats, HostModules: polybench.HostModules(), HostData: host,
		Seed: 1234, Counter: ctr, Program: prog,
	})
	if err != nil {
		return nil, err
	}
	heapBase, ok := inst.GlobalValue("__heap_base")
	if !ok {
		return nil, errors.New("module lacks __heap_base")
	}
	host.A, err = alloc.New(inst, heapBase)
	return inst, err
}

// newFusedBenchInstance is newKernelInstance with an explicit
// pre-lowered (typically fused) program.
func newFusedBenchInstance(t testing.TB, m *wasm.Module, feats core.Features, ctr *arch.Counter, prog *ir.Program) *exec.Instance {
	t.Helper()
	inst, err := kernelInstance(m, feats, ctr, prog)
	if err != nil {
		t.Fatalf("instantiate fused: %v", err)
	}
	return inst
}

func TestFusedMatchesUnfusedOnPolybench(t *testing.T) {
	kernels := []string{"gemm", "2mm", "atax", "jacobi-1d", "durbin"}
	for _, name := range kernels {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range dispatchConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				m, err := polybench.Build(k, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}

				var ctrPlain arch.Counter
				plain := newKernelInstance(t, m, cfg.feats, &ctrPlain)
				plainRes, plainErr := plain.Invoke("run", uint64(k.TestN))

				var ctrFused arch.Counter
				fused := newFusedKernelInstance(t, m, cfg.feats, &ctrFused)
				fusedRes, fusedErr := fused.Invoke("run", uint64(k.TestN))

				if (plainErr == nil) != (fusedErr == nil) {
					t.Fatalf("error mismatch: unfused=%v fused=%v", plainErr, fusedErr)
				}
				if plainErr != nil {
					t.Fatalf("kernel failed under both tiers: %v", plainErr)
				}
				if len(plainRes) != len(fusedRes) {
					t.Fatalf("result arity: unfused=%d fused=%d", len(plainRes), len(fusedRes))
				}
				for i := range plainRes {
					if plainRes[i] != fusedRes[i] {
						t.Fatalf("result[%d]: unfused=%#x fused=%#x", i, plainRes[i], fusedRes[i])
					}
				}
				for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
					if ctrPlain.Get(ev) != ctrFused.Get(ev) {
						t.Errorf("event %v: unfused=%d fused=%d", ev, ctrPlain.Get(ev), ctrFused.Get(ev))
					}
				}
			})
		}
	}
}

// TestFusedMatchesUnfusedTraps drives the trap-matrix modules through
// the fused tier: same trap codes at the same sites, and the same
// per-event totals up to the trap.
func TestFusedMatchesUnfusedTraps(t *testing.T) {
	for _, tc := range trapCases() {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := exec.NewInstance(tc.mod, exec.Config{Features: tc.feats, Seed: 7})
			if err != nil {
				t.Fatalf("instantiate unfused: %v", err)
			}
			plainRes, plainErr := plain.InvokeWith(context.Background(), "f", nil, exec.CallOptions{})

			prog, err := exec.LowerModule(tc.mod, exec.Config{Features: tc.feats})
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			fusedInst, err := exec.NewInstance(tc.mod, exec.Config{
				Features: tc.feats, Seed: 7, Program: fuse.Fuse(prog, nil),
			})
			if err != nil {
				t.Fatalf("instantiate fused: %v", err)
			}
			fusedRes, fusedErr := fusedInst.InvokeWith(context.Background(), "f", nil, exec.CallOptions{})

			var plainTrap, fusedTrap *exec.Trap
			if !errors.As(plainErr, &plainTrap) {
				t.Fatalf("unfused did not trap: %v", plainErr)
			}
			if !errors.As(fusedErr, &fusedTrap) {
				t.Fatalf("fused did not trap: %v", fusedErr)
			}
			if plainTrap.Code != tc.code || fusedTrap.Code != tc.code {
				t.Errorf("trap codes: unfused=%v fused=%v, want %v",
					plainTrap.Code, fusedTrap.Code, tc.code)
			}
			if plainRes.Events != fusedRes.Events {
				t.Errorf("events: unfused=%v fused=%v",
					plainRes.Events.EventCounts(), fusedRes.Events.EventCounts())
			}
		})
	}
}

// idiomSeedSource is the FuzzFuse seed whose exhaustive fusion contains
// every straight-line opcode, indexed loads and idioms alike
// (TestFuzzFuseSeedCoversIdioms): indexed loads of every form with and
// without their trailing op, scaled-index loads off i ± 1 rows feeding
// f64.mul, f64.add and f64.sub, both reduction latches, the counted-
// loop head and latch, and a 3-point stencil under an i < n - 1 head
// (A[i - 1], A[i], A[i + 1] into B[i]). It imports nothing (the arrays
// are globals), so the fuzz target's execution half runs it instead of
// skipping on an unresolved malloc.
const idiomSeedSource = `
double ga[256];
double gb[16];
double gc[16];
double run(long n) {
    if (n > 16) { n = 16; }
    double* a = ga;
    double* b = gb;
    double* c = gc;
    for (long i = 0; i < n; i++) {
        b[i] = 0.5 * (double)i;
        for (long j = 0; j < n; j++) { a[i * n + j] = 1.5; }
    }
    double s = 0.0;
    double d = 0.0;
    for (long i = 1; i < n - 1; i++) {
        for (long k = 0; k < n; k++) {
            s += 2.0 * a[i * n + k] * b[k];
        }
        for (long k = 0; k < n; k++) {
            d -= b[k] - a[(i - 1) * n + k] + a[(i + 1) * n + k];
        }
        for (long k = 0; k < n; k++) {
            s += a[i * n + k] * b[k] + b[k] * a[k * n] + a[(i + 1) * n + k] * a[(i - 1) * n + k];
        }
    }
    for (long i = 1; i < n - 1; i++) {
        c[i] = 0.25 * (b[i - 1] + b[i] + b[i + 1]);
    }
    for (long i = 0; i < n; i++) { d += c[i]; }
    return s + d;
}`

// branchSeedSource is the FuzzFuse seed with a branch target inside an
// indexed load's window: the ternaries' merge point is the get i of
// get b; get i; const 8; i64.mul; i64.add; load and of
// get b; get i; const 1; i64.extend_i32_s; i64.sub; const 8; …, so
// neither sequence may fuse (TestFuzzFuseSeedCoversIdioms).
const branchSeedSource = `
double ga[64];
double gb[64];
double run(long n) {
    if (n > 64) { n = 64; }
    double* a = ga;
    double* b = gb;
    double s = 0.0;
    for (long i = 0; i < n; i++) { s += (i > 3 ? a : b)[i]; }
    for (long i = 1; i < n; i++) { s += (i > 5 ? a : b)[i - 1]; }
    return s;
}`

// mallocSeedSource is the FuzzFuse seed that imports: whatever the
// fuzzer derives from it calls into the host allocator, so the
// execution half must link both tiers against it.
const mallocSeedSource = `
extern char* malloc(long n);
long run(long n) {
    long* a = (long*)malloc(n * 8);
    long s = 0;
    for (long i = 0; i < n; i++) { a[i] = i * 3; s += a[i]; }
    return s;
}`

// lowerMiniC64 takes a MiniC source through the baseline64 pipeline to
// its unfused lowered program.
func lowerMiniC64(src string) (*wasm.Module, *ir.Program, error) {
	file, err := minicc.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	mprog, err := minicc.Analyze(file, minicc.Layout64)
	if err != nil {
		return nil, nil, err
	}
	m, err := codegen.Compile(mprog, codegen.Options{Wasm64: true})
	if err != nil {
		return nil, nil, err
	}
	prog, err := exec.LowerModule(m, exec.Config{})
	return m, prog, err
}

// TestFuzzFuseSeedCoversIdioms keeps the fuzzer's corpus honest: a
// straight-line opcode added without a seed that produces it would be
// fuzzed only by luck, and so would the rule that a branch target
// inside an indexed load's window stops it fusing.
func TestFuzzFuseSeedCoversIdioms(t *testing.T) {
	ops := func(src string) map[ir.Op]bool {
		_, prog, err := lowerMiniC64(src)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[ir.Op]bool{}
		for _, fn := range fuse.Fuse(prog, nil).Funcs {
			for _, in := range fn.Code {
				seen[in.Op] = true
			}
		}
		return seen
	}
	seen := ops(idiomSeedSource)
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		if op.IsStraightLine() && !seen[op] {
			t.Errorf("idiomSeedSource fuses to no %v", op)
		}
	}
	for op := range ops(branchSeedSource) {
		if op.IsIndexed() {
			t.Errorf("branchSeedSource fuses to %v across a branch target", op)
		}
	}
}

// TestFuzzFuseSeedsReachEventComparison: a seed that stops short of the
// event comparison — the malloc seed did, on an unresolved import,
// while both tiers were instantiated without host modules — leaves the
// fuzzer mutating inputs whose execution is never checked.
func TestFuzzFuseSeedsReachEventComparison(t *testing.T) {
	for _, seed := range []struct {
		name, src string
		arg       uint64
	}{
		{"idiom", idiomSeedSource, 12},
		{"branch", branchSeedSource, 12},
		{"malloc", mallocSeedSource, 64},
	} {
		if got := checkFuseContracts(t, seed.src, seed.arg); got != fuseEventsCompared {
			t.Errorf("%s seed: outcome %d, want the event comparison (%d)", seed.name, got, fuseEventsCompared)
		}
	}
}

// FuzzFuse feeds MiniC programs through the full pipeline and asserts
// the fuse pass's two contracts on whatever the fuzzer synthesizes:
// every branch target in the fused stream is a valid absolute PC, and
// execution is oracle-equivalent to the unfused program (results, trap
// codes, event stream). Seeds come from the differential suite's call
// kernels plus mallocSeedSource, idiomSeedSource and branchSeedSource.
func FuzzFuse(f *testing.F) {
	for _, k := range callKernelSources {
		f.Add(k.src, k.arg)
	}
	f.Add(idiomSeedSource, uint64(12))
	f.Add(branchSeedSource, uint64(12))
	f.Add(mallocSeedSource, uint64(64))
	f.Fuzz(func(t *testing.T, src string, arg uint64) {
		if checkFuseContracts(t, src, arg) == fuseNotRunnable {
			t.Skip()
		}
	})
}

// fuseOutcome is how far checkFuseContracts got with an input.
type fuseOutcome int

const (
	fuseNotRunnable    fuseOutcome = iota // does not compile, lower or link: nothing to compare
	fuseTrapsCompared                     // both tiers stopped on the same trap (or ran dry)
	fuseEventsCompared                    // both tiers returned: results and event totals compared
)

// checkFuseContracts is FuzzFuse's body: it fails t on a broken
// contract and reports how far the input got otherwise.
func checkFuseContracts(t *testing.T, src string, arg uint64) fuseOutcome {
	m, prog, err := lowerMiniC64(src)
	if err != nil {
		return fuseNotRunnable
	}
	fusedProg := fuse.Fuse(prog, nil)

	// Contract 1: branch-target validity after the PC remap.
	for fi, fn := range fusedProg.Funcs {
		check := func(target int) {
			if target < 0 || target >= len(fn.Code) {
				t.Fatalf("func %d: branch target %d outside [0,%d)", fi, target, len(fn.Code))
			}
		}
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpGoto, ir.OpBr, ir.OpBrIf, ir.OpBrIfZ:
				check(int(in.B))
			case ir.OpBrTable:
				for _, bt := range in.Targets {
					check(int(bt.PC))
				}
			}
			if in.Op.IsFusedBranch() {
				check(ir.FusedBranchTarget(in.B))
			}
		}
	}

	// Contract 2: oracle equivalence under a fuel bound (fuzzed
	// programs may loop forever; both tiers must run dry at the
	// same event count). Both tiers link against the polybench host
	// modules, so a program that imports malloc executes.
	const fuel = 200_000
	var ctrPlain arch.Counter
	plain, err := kernelInstance(m, core.Features{}, &ctrPlain, nil)
	if err != nil {
		return fuseNotRunnable // e.g. imports the fuzzer invented
	}
	plainRes, plainErr := plain.InvokeWith(context.Background(), "run",
		[]uint64{arg % 1024}, exec.CallOptions{Fuel: fuel})

	var ctrFused arch.Counter
	fusedInst, err := kernelInstance(m, core.Features{}, &ctrFused, fusedProg)
	if err != nil {
		t.Fatalf("fused instantiation failed where unfused succeeded: %v", err)
	}
	fusedRes, fusedErr := fusedInst.InvokeWith(context.Background(), "run",
		[]uint64{arg % 1024}, exec.CallOptions{Fuel: fuel})

	if (plainErr == nil) != (fusedErr == nil) {
		t.Fatalf("error mismatch: unfused=%v fused=%v", plainErr, fusedErr)
	}
	if plainErr != nil {
		var pt, ft *exec.Trap
		if errors.As(plainErr, &pt) != errors.As(fusedErr, &ft) || (pt != nil && pt.Code != ft.Code) {
			t.Fatalf("trap mismatch: unfused=%v fused=%v", plainErr, fusedErr)
		}
		// Where a tier stops, it has consumed the same: a trap takes
		// back the rest of its region, and fuel runs out at the same
		// checkpoint.
		if plainRes.Fuel != fusedRes.Fuel || plainRes.Events != fusedRes.Events {
			t.Fatalf("%v: fuel unfused=%d fused=%d, events unfused=%v fused=%v", plainErr,
				plainRes.Fuel, fusedRes.Fuel, plainRes.Events.EventCounts(), fusedRes.Events.EventCounts())
		}
		return fuseTrapsCompared
	}
	if len(plainRes.Values) != len(fusedRes.Values) {
		t.Fatalf("result arity: unfused=%d fused=%d", len(plainRes.Values), len(fusedRes.Values))
	}
	for i := range plainRes.Values {
		if plainRes.Values[i] != fusedRes.Values[i] {
			t.Fatalf("result[%d]: unfused=%#x fused=%#x", i, plainRes.Values[i], fusedRes.Values[i])
		}
	}
	for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
		if ctrPlain.Get(ev) != ctrFused.Get(ev) {
			t.Fatalf("event %v: unfused=%d fused=%d", ev, ctrPlain.Get(ev), ctrFused.Get(ev))
		}
	}
	return fuseEventsCompared
}
