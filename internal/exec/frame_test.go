package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cage/internal/arch"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// callLoopModule builds f() calling g(i) 256 times in a loop — the
// steady-state guest→guest call workload the zero-allocation gate
// measures — plus the identity callee g.
func callLoopModule() *wasm.Module {
	m := &wasm.Module{}
	tF := m.AddType(wasm.FuncType{})
	tG := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []wasm.Function{
		{TypeIdx: tF, Locals: []wasm.ValType{wasm.I64}, Body: []wasm.Instr{
			wasm.Block(wasm.BlockVoid),
			wasm.Loop(wasm.BlockVoid),
			wasm.LocalGet(0), wasm.I64Const(256), wasm.Op(wasm.OpI64GeS), wasm.BrIf(1),
			wasm.LocalGet(0), wasm.Call(1), wasm.Op(wasm.OpDrop),
			wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Add), wasm.LocalSet(0),
			wasm.Br(0),
			wasm.End(),
			wasm.End(),
			wasm.End(),
		}},
		{TypeIdx: tG, Body: []wasm.Instr{wasm.LocalGet(0), wasm.End()}},
	}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	return m
}

// recModule builds f(n): n <= 0 ? 0 : f(n-1)+1 — one activation per
// recursion step, for the exact frame-count bound tests.
func recModule() *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: []wasm.Instr{
		wasm.Block(wasm.BlockVoid),
		wasm.LocalGet(0), wasm.I64Const(0), wasm.Op(wasm.OpI64GtS), wasm.BrIf(0),
		wasm.I64Const(0), wasm.Op(wasm.OpReturn),
		wasm.End(),
		wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Sub),
		wasm.Call(0),
		wasm.I64Const(1), wasm.Op(wasm.OpI64Add),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	return m
}

// RaceEnabled lets the allocation gates that live in package exec_test
// (they import packages that import exec) skip under the race detector
// like the ones in this package.
const RaceEnabled = raceEnabled

// TestGuestCallZeroAlloc is the allocation gate for the frame machine:
// once the arena and frame stack are warm, an unmetered invocation
// whose guest makes hundreds of guest→guest calls must allocate
// nothing. testing.AllocsPerRun performs a warm-up run before
// measuring, which is exactly the pooled steady state (the arena is
// retained across calls and across restores).
func TestGuestCallZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	inst, err := NewInstance(callLoopModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	avg := testing.AllocsPerRun(100, func() {
		if _, err := inst.Invoke("f"); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if avg != 0 {
		t.Errorf("steady-state guest→guest call workload allocates %.1f objects per invocation, want 0", avg)
	}
}

// TestArenaScrubbedAfterTrappedRecursion: the scrub clears the arena up
// to its high-water mark, not its capacity, so the mark must cover every
// slot a call wrote — including the frames a trapped deep recursion
// abandoned. No value it left may survive a restore.
func TestArenaScrubbedAfterTrappedRecursion(t *testing.T) {
	inst, err := NewInstance(recModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// From the second round on the arena is already grown, so the deep
	// call stays on the dispatch loop's inline push path.
	for round := uint64(1); round <= 3; round++ {
		name := fmt.Sprintf("round %d", round)
		// A shallow call first, so the deep one runs past a mark that is
		// already set.
		if _, err := inst.Invoke("f", 3); err != nil {
			t.Fatal(err)
		}
		_, err := inst.InvokeWith(context.Background(), "f", []uint64{0xABCDEF}, CallOptions{MaxCallDepth: 500})
		if !IsTrap(err, TrapStackOverflow) {
			t.Fatalf("deep recursion = %v, want TrapStackOverflow", err)
		}
		if inst.valsHigh < 500 {
			t.Fatalf("high-water mark %d after 500 frames", inst.valsHigh)
		}
		if err := inst.RestoreFromSnapshot(snap, round); err != nil {
			t.Fatal(err)
		}
		for i, v := range inst.vals[:cap(inst.vals)] {
			if v != 0 {
				t.Fatalf("%s: arena slot %d = %#x left by the trapped recursion", name, i, v)
			}
		}
		if inst.valsHigh != 0 {
			t.Fatalf("%s: high-water mark %d, want 0", name, inst.valsHigh)
		}
	}
}

// TestStackOverflowExactDepth pins the frame-count bound to an exact
// activation count: f(n) needs n+1 frames, so under MaxCallDepth d the
// deepest success is f(d-1) and f(d) traps — deterministically, with
// TrapStackOverflow. The 100 001-frame case is the deep-recursion
// regression: guest frames live in the value arena, not the Go stack,
// so a bound far past the default 1024 is honoured exactly.
func TestStackOverflowExactDepth(t *testing.T) {
	for _, depth := range []uint64{10, 100_001} {
		inst, err := NewInstance(recModule(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		opts := CallOptions{MaxCallDepth: int(depth)}
		res, err := inst.InvokeWith(context.Background(), "f", []uint64{depth - 1}, opts)
		if err != nil {
			t.Fatalf("f(%d) under %d frames should fit exactly: %v", depth-1, depth, err)
		}
		if res.Values[0] != depth-1 {
			t.Fatalf("f(%d) = %d", depth-1, res.Values[0])
		}
		for i := 0; i < 2; i++ { // the boundary is deterministic
			_, err = inst.InvokeWith(context.Background(), "f", []uint64{depth}, opts)
			if !IsTrap(err, TrapStackOverflow) {
				t.Fatalf("f(%d) under %d frames = %v, want TrapStackOverflow", depth, depth, err)
			}
		}
	}
}

// TestStackOverflowArenaBound: the value-arena bound is enforced in
// words, exactly and deterministically, independent of the frame count.
func TestStackOverflowArenaBound(t *testing.T) {
	inst, err := NewInstance(recModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	frameSize := inst.Program().Funcs[0].FrameSize
	if frameSize <= 0 {
		t.Fatalf("FrameSize = %d", frameSize)
	}
	// Find the deepest recursion a small word budget admits, then pin
	// the boundary: n succeeds, n+1 traps with TrapStackOverflow, twice.
	budget := uint64(8 * frameSize)
	deepest := -1
	for n := 0; n < 64; n++ {
		_, err := inst.InvokeWith(context.Background(), "f", []uint64{uint64(n)},
			CallOptions{MaxStackWords: budget})
		if err != nil {
			if !IsTrap(err, TrapStackOverflow) {
				t.Fatalf("f(%d) under %d words = %v, want TrapStackOverflow", n, budget, err)
			}
			deepest = n - 1
			break
		}
	}
	if deepest < 0 {
		t.Fatal("word budget never tripped")
	}
	for i := 0; i < 2; i++ {
		if _, err := inst.InvokeWith(context.Background(), "f", []uint64{uint64(deepest)},
			CallOptions{MaxStackWords: budget}); err != nil {
			t.Fatalf("boundary not deterministic: f(%d) = %v", deepest, err)
		}
		_, err := inst.InvokeWith(context.Background(), "f", []uint64{uint64(deepest + 1)},
			CallOptions{MaxStackWords: budget})
		if !IsTrap(err, TrapStackOverflow) {
			t.Fatalf("boundary not deterministic: f(%d) = %v, want TrapStackOverflow", deepest+1, err)
		}
	}
}

// setCode makes code the first function of p and rebuilds p's event
// table for it. inst, if not nil, is an instance already running p,
// whose visit counts are resized to the new table.
func setCode(inst *Instance, p *ir.Program, code []ir.Instr) {
	p.Funcs[0].Code = code
	if err := ir.BuildCharges(p); err != nil {
		panic(err)
	}
	if inst != nil {
		inst.sizeVisits()
	}
}

// TestBrIfZOnlyLoopInterruptible is the regression test for the missed
// interruption checkpoint on taken OpBrIfZ branches: a loop whose only
// taken edge is a BrIfZ must still be stopped by a deadline and by a
// fuel budget. Valid wasm always lowers loop back-edges to metered
// br/br_if/br_table, so the loop is built directly in lowered form (a
// synthetic ir.Program attached via Config.Program) — the shape a buggy
// or adversarial lowering could produce.
func TestBrIfZOnlyLoopInterruptible(t *testing.T) {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{})
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: []wasm.Instr{wasm.Op(wasm.OpEnd)}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	prog := &ir.Program{
		Cfg: ir.Config{Mode: ir.ModeGuard32},
		Funcs: []ir.Func{{
			MaxStack:  1,
			FrameSize: 1,
			Code: []ir.Instr{
				{Op: ir.OpConst, A: 0},
				{Op: ir.OpBrIfZ, B: 0}, // always taken, always backward
				{Op: ir.OpRetEnd, A: 0},
			},
		}},
	}
	setCode(nil, prog, prog.Funcs[0].Code)
	inst, err := NewInstance(m, Config{Program: prog})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := inst.InvokeWith(ctx, "f", nil, CallOptions{}); !IsTrap(err, TrapInterrupted) {
		t.Fatalf("BrIfZ-only loop under a deadline = %v, want TrapInterrupted", err)
	}
	if _, err := inst.InvokeWith(context.Background(), "f", nil, CallOptions{Fuel: 1000}); !IsTrap(err, TrapFuelExhausted) {
		t.Fatalf("BrIfZ-only loop under fuel = %v, want TrapFuelExhausted", err)
	}
}

// TestHostReentryBarrier: a host function re-enters the guest while the
// outer activation's frame — locals and a partially built operand
// stack — is live in the arena. The re-entrant call stacks above the
// barrier, recurses deep enough to force the arena to grow (so the
// outer frame's cached views must be re-derived, not reused), and the
// outer activation still completes with the right values. Its events
// are those of the two runs apart, though the inner run shares the
// outer run's visit counts, and the host finds the outer run's events
// up to the crossing in the counter.
func TestHostReentryBarrier(t *testing.T) {
	m := &wasm.Module{}
	tHost := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	tRec := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: "reenter", TypeIdx: tHost}}
	m.Funcs = []wasm.Function{
		// f(n) = 2n + reenter(n), with 2n parked on the operand stack
		// across the host crossing.
		{TypeIdx: tRec, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.I64Const(2), wasm.Op(wasm.OpI64Mul),
			wasm.LocalGet(0), wasm.Call(0),
			wasm.Op(wasm.OpI64Add),
			wasm.End(),
		}},
		// deep(n): n <= 0 ? 0 : deep(n-1)+1.
		{TypeIdx: tRec, Body: []wasm.Instr{
			wasm.Block(wasm.BlockVoid),
			wasm.LocalGet(0), wasm.I64Const(0), wasm.Op(wasm.OpI64GtS), wasm.BrIf(0),
			wasm.I64Const(0), wasm.Op(wasm.OpReturn),
			wasm.End(),
			wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Sub),
			wasm.Call(2),
			wasm.I64Const(1), wasm.Op(wasm.OpI64Add),
			wasm.End(),
		}},
	}
	m.Exports = []wasm.Export{
		{Name: "f", Kind: wasm.ExportFunc, Idx: 1},
		{Name: "deep", Kind: wasm.ExportFunc, Idx: 2},
	}

	// atHost is the counter as the last host call found it.
	var atHost arch.Counter
	instantiate := func(reenter bool) *Instance {
		env := NewHostModule("env").Func("reenter",
			wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}},
			func(hc *HostContext, args []uint64) ([]uint64, error) {
				atHost = hc.Instance().Counter().Snapshot()
				if !reenter {
					return []uint64{0}, nil
				}
				res, err := hc.Call(nil, "deep", []uint64{args[0]})
				if err != nil {
					return nil, err
				}
				return []uint64{res[0] * 10}, nil
			})
		inst, err := NewInstance(m, Config{HostModules: []*HostModule{env}})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	inst := instantiate(true)

	// Small first: f(5) = 10 + 50.
	res, err := inst.Invoke("f", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 60 {
		t.Fatalf("f(5) = %d, want 60", res[0])
	}

	// Now force arena growth inside the host call: 500 recursion frames
	// stack above f's live frame. f(500) = 1000 + 5000.
	res, err = inst.Invoke("f", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 6000 {
		t.Fatalf("f(500) = %d, want 6000 (outer frame corrupted across re-entry)", res[0])
	}

	run := func(inst *Instance, name string) (total, host arch.Counter) {
		inst.Counter().Reset()
		atHost = arch.Counter{}
		if _, err := inst.Invoke(name, 500); err != nil {
			t.Fatal(err)
		}
		return inst.Counter().Snapshot(), atHost
	}
	nested, nestedHost := run(inst, "f")
	plain := instantiate(false)
	flat, flatHost := run(plain, "f")
	deep, _ := run(plain, "deep")
	flat.Merge(&deep)
	if nested != flat {
		t.Errorf("f(500) re-entering deep(500) charges %v, the two runs apart %v",
			nested.EventCounts(), flat.EventCounts())
	}
	if nestedHost != flatHost || flatHost.Get(arch.EvCall) != 1 {
		t.Errorf("the host found %v in the counter (%v without re-entry), want f's events through its call",
			nestedHost.EventCounts(), flatHost.EventCounts())
	}
}

// TestArenaRetainedAcrossReset: a restore to the birth image — the
// pooled reset — keeps the arena and frame-stack capacity (the
// steady-state zero-allocation property of pooled instances) while
// scrubbing their contents.
func TestArenaRetainedAcrossReset(t *testing.T) {
	inst, err := NewInstance(recModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	birth, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("f", 100); err != nil {
		t.Fatal(err)
	}
	arenaCap := cap(inst.vals)
	frameCap := cap(inst.frames)
	if arenaCap == 0 || frameCap == 0 {
		t.Fatalf("arena not materialized: vals %d frames %d", arenaCap, frameCap)
	}
	if err := inst.RestoreFromSnapshot(birth, 42); err != nil {
		t.Fatal(err)
	}
	if cap(inst.vals) != arenaCap || cap(inst.frames) != frameCap {
		t.Errorf("restore dropped the arena: vals %d→%d, frames %d→%d",
			arenaCap, cap(inst.vals), frameCap, cap(inst.frames))
	}
	for i, v := range inst.vals {
		if v != 0 {
			t.Fatalf("arena slot %d = %#x after the restore, want scrubbed", i, v)
		}
	}
	res, err := inst.Invoke("f", 100)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 100 {
		t.Fatalf("f(100) after the restore = %d", res[0])
	}
}
