package exec_test

// Tests for the guard-region memory backend (internal/vmem). They run
// on whatever backing vmem.Supported() selects: where the platform or
// the kernel (CI's `ulimit -v` pass) refuses the reservation, the heap
// paths serve every instance and must behave the same.

import (
	"testing"

	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
	"cage/internal/vmem"
	"cage/internal/wasm"
)

// TestGuardHeadroomCoversMaxOffset pins the cross-package invariant the
// guard dispatch relies on: the largest address a guard-eligible access
// can form — a 32-bit index plus the lowering's immediate-offset cap
// plus the widest access — must land inside the reservation, so it
// either hits committed memory or faults in PROT_NONE; it can never
// escape past the mapping.
func TestGuardHeadroomCoversMaxOffset(t *testing.T) {
	if vmem.Headroom < ir.GuardMaxOffset+8 {
		t.Fatalf("vmem.Headroom %d < ir.GuardMaxOffset+8 = %d",
			vmem.Headroom, ir.GuardMaxOffset+8)
	}
}

// TestGuardLoweringGating: guard opcodes appear exactly when the
// platform and kernel support the backend, and only for guard32-strategy
// programs. The log line is what CI's forced-fallback pass greps for, so
// that pass cannot go vacuous.
func TestGuardLoweringGating(t *testing.T) {
	t.Logf("vmem.Supported() = %v", vmem.Supported())
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	m, err := polybench.Build(k, codegen.Options{Wasm64: false})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.LowerModule(m, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cfg.Guard != vmem.Supported() {
		t.Fatalf("guard32 program lowered with Guard=%v, vmem.Supported()=%v",
			prog.Cfg.Guard, vmem.Supported())
	}
	var guarded int
	for _, f := range prog.Funcs {
		for _, in := range f.Code {
			if in.Op == ir.OpLoadG32G || in.Op == ir.OpStoreG32G {
				guarded++
			}
		}
	}
	if vmem.Supported() && guarded == 0 {
		t.Fatal("guard-capable process lowered no guard opcodes")
	}
	if !vmem.Supported() && guarded != 0 {
		t.Fatalf("process without guard reservations lowered %d guard opcodes", guarded)
	}
}

// TestGuardMatchesLegacyOnPolybench is the guard tier's differential
// oracle: wasm32 kernels on the guard backend (plain and fused) must
// match the legacy interpreter in results and event counts.
func TestGuardMatchesLegacyOnPolybench(t *testing.T) {
	if !vmem.Supported() {
		t.Skip("no guard reservation: not linux/amd64 or linux/arm64, or the kernel refuses 4 GiB of address space")
	}
	for _, name := range []string{"gemm", "jacobi-1d"} {
		t.Run(name, func(t *testing.T) {
			k, err := polybench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := polybench.Build(k, codegen.Options{Wasm64: false})
			if err != nil {
				t.Fatal(err)
			}

			var ctrGuard arch.Counter
			guard := newKernelInstance(t, m, core.Features{}, &ctrGuard)
			guardRes, err := guard.Invoke("run", uint64(k.TestN))
			if err != nil {
				t.Fatalf("guard run: %v", err)
			}

			var ctrFused arch.Counter
			fused := newFusedKernelInstance(t, m, core.Features{}, &ctrFused)
			fusedRes, err := fused.Invoke("run", uint64(k.TestN))
			if err != nil {
				t.Fatalf("fused guard run: %v", err)
			}

			var ctrLeg arch.Counter
			leg := newKernelInstance(t, m, core.Features{}, &ctrLeg)
			lr, err := exec.NewLegacyRunner(leg)
			if err != nil {
				t.Fatal(err)
			}
			legRes, err := lr.Invoke("run", uint64(k.TestN))
			if err != nil {
				t.Fatalf("legacy run: %v", err)
			}

			if guardRes[0] != legRes[0] || fusedRes[0] != legRes[0] {
				t.Fatalf("results: guard=%#x fused=%#x legacy=%#x",
					guardRes[0], fusedRes[0], legRes[0])
			}
			for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
				if ctrGuard.Get(ev) != ctrLeg.Get(ev) {
					t.Errorf("event %v: guard=%d legacy=%d", ev, ctrGuard.Get(ev), ctrLeg.Get(ev))
				}
				if ctrFused.Get(ev) != ctrLeg.Get(ev) {
					t.Errorf("event %v: fused=%d legacy=%d", ev, ctrFused.Get(ev), ctrLeg.Get(ev))
				}
			}
		})
	}
}

// guardModule builds a wasm32 module exporting poke(addr, val):
// i32.store val at addr, and peek(addr): i32.load, plus grow(n):
// memory.grow by n pages.
func guardModule(min uint64) *wasm.Module {
	return &wasm.Module{
		Types: []wasm.FuncType{
			{Params: []wasm.ValType{wasm.I32, wasm.I32}},                          // poke
			{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, // peek, grow
		},
		Funcs: []wasm.Function{
			{TypeIdx: 0, Body: []wasm.Instr{
				wasm.LocalGet(0), wasm.LocalGet(1), wasm.Store(wasm.OpI32Store, 0), wasm.Op(wasm.OpEnd),
			}},
			{TypeIdx: 1, Body: []wasm.Instr{
				wasm.LocalGet(0), wasm.Load(wasm.OpI32Load, 0), wasm.Op(wasm.OpEnd),
			}},
			{TypeIdx: 1, Body: []wasm.Instr{
				wasm.LocalGet(0), wasm.Op(wasm.OpMemoryGrow), wasm.Op(wasm.OpEnd),
			}},
		},
		Mems: []wasm.MemoryType{{Limits: wasm.Limits{Min: min, Max: 4, HasMax: true}}},
		Exports: []wasm.Export{
			{Name: "poke", Kind: wasm.ExportFunc, Idx: 0},
			{Name: "peek", Kind: wasm.ExportFunc, Idx: 1},
			{Name: "grow", Kind: wasm.ExportFunc, Idx: 2},
		},
	}
}

// newGuardInstances returns a plain and an exhaustively fused instance
// of the module, both on whatever backend the build provides.
func newGuardInstances(t *testing.T, m *wasm.Module) (*exec.Instance, *exec.Instance) {
	t.Helper()
	plain, err := exec.NewInstance(m, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.LowerModule(m, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := exec.NewInstance(m, exec.Config{Program: fuse.Fuse(prog, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return plain, fused
}

// TestGuardOOBTraps: accesses past the committed prefix must raise
// TrapOutOfBounds — via the MMU on the guard backend, via the explicit
// check elsewhere — and leave the instance usable. Every opcode with a
// memory constituent that a wasm32 module fuses to faults there with
// the lowered tier's and the oracle's event totals: the fault leaves
// the dispatch loop by panic, and its region is taken back from the pc
// the access published (exec.MemConstituentTraps).
func TestGuardOOBTraps(t *testing.T) {
	exec.MemConstituentTraps(t, "guard")
	m := guardModule(1)
	plain, fused := newGuardInstances(t, m)
	for _, inst := range []*exec.Instance{plain, fused} {
		// One page committed: 65532 is the last aligned in-bounds slot.
		if _, err := inst.Invoke("poke", 65532, 7); err != nil {
			t.Fatalf("in-bounds store: %v", err)
		}
		if _, err := inst.Invoke("poke", 65533, 7); !exec.IsTrap(err, exec.TrapOutOfBounds) {
			t.Fatalf("straddling store: got %v, want TrapOutOfBounds", err)
		}
		if _, err := inst.Invoke("peek", 1<<20); !exec.IsTrap(err, exec.TrapOutOfBounds) {
			t.Fatalf("far load: got %v, want TrapOutOfBounds", err)
		}
		// The trap must not have poisoned the instance.
		res, err := inst.Invoke("peek", 65532)
		if err != nil || uint32(res[0]) != 7 {
			t.Fatalf("post-trap peek = %v, %v; want 7", res, err)
		}
	}
}

// TestGuardMemoryGrow: growth must commit new pages that are readable,
// writable, zeroed, and bounded by the declared maximum.
func TestGuardMemoryGrow(t *testing.T) {
	m := guardModule(1)
	plain, fused := newGuardInstances(t, m)
	for _, inst := range []*exec.Instance{plain, fused} {
		if _, err := inst.Invoke("peek", 70000); !exec.IsTrap(err, exec.TrapOutOfBounds) {
			t.Fatalf("pre-grow access: got %v, want TrapOutOfBounds", err)
		}
		res, err := inst.Invoke("grow", 1)
		if err != nil || uint32(res[0]) != 1 {
			t.Fatalf("grow(1) = %v, %v; want old page count 1", res, err)
		}
		if res, err := inst.Invoke("peek", 70000); err != nil || uint32(res[0]) != 0 {
			t.Fatalf("fresh page not zeroed/readable: %v, %v", res, err)
		}
		if _, err := inst.Invoke("poke", 70000, 42); err != nil {
			t.Fatalf("store to fresh page: %v", err)
		}
		if res, err := inst.Invoke("peek", 70000); err != nil || uint32(res[0]) != 42 {
			t.Fatalf("readback: %v, %v; want 42", res, err)
		}
		// Beyond the declared max of 4 pages the grow must fail with -1.
		if res, err := inst.Invoke("grow", 100); err != nil || int32(res[0]) != -1 {
			t.Fatalf("over-max grow = %v, %v; want -1", res, err)
		}
	}
}

// TestGuardResetAndSnapshot: restores to the birth image (the pooled
// reset) and to a later capture must shrink, zero, and recommit guard
// memory correctly.
func TestGuardResetAndSnapshot(t *testing.T) {
	m := guardModule(1)
	inst, err := exec.NewInstance(m, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	birth, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("grow", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("poke", 70000, 99); err != nil {
		t.Fatal(err)
	}

	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Reset: back to one page, zeroed, grown page decommitted.
	if err := inst.RestoreFromSnapshot(birth, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("peek", 70000); !exec.IsTrap(err, exec.TrapOutOfBounds) {
		t.Fatalf("post-reset access past initial size: got %v, want TrapOutOfBounds", err)
	}
	if res, err := inst.Invoke("peek", 100); err != nil || res[0] != 0 {
		t.Fatalf("post-reset memory not zeroed: %v, %v", res, err)
	}

	// Restore: two pages again, with the poked value back.
	if err := inst.RestoreFromSnapshot(snap, 2); err != nil {
		t.Fatal(err)
	}
	if res, err := inst.Invoke("peek", 70000); err != nil || uint32(res[0]) != 99 {
		t.Fatalf("post-restore peek = %v, %v; want 99", res, err)
	}

	// A fork instantiated from the image sees the same state.
	fork, err := exec.NewInstance(m, exec.Config{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fork.Invoke("peek", 70000); err != nil || uint32(res[0]) != 99 {
		t.Fatalf("forked peek = %v, %v; want 99", res, err)
	}
	if err := fork.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
}
