package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"cage/internal/wasm"
)

// spinModule is a guest infinite loop: loop { br 0 }.
func spinModule() *wasm.Module {
	return buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.Loop(wasm.BlockVoid),
		wasm.Br(0),
		wasm.End(),
		wasm.I64Const(0),
		wasm.End(),
	)
}

// countModule loops n times and returns n.
func countModule() *wasm.Module {
	return buildModule([]wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64},
		[]wasm.ValType{wasm.I64},
		wasm.Block(wasm.BlockVoid),
		wasm.Loop(wasm.BlockVoid),
		wasm.LocalGet(1), wasm.LocalGet(0), wasm.Op(wasm.OpI64GeS), wasm.BrIf(1),
		wasm.LocalGet(1), wasm.I64Const(1), wasm.Op(wasm.OpI64Add), wasm.LocalSet(1),
		wasm.Br(0),
		wasm.End(),
		wasm.End(),
		wasm.LocalGet(1),
		wasm.End(),
	)
}

func TestInvokeWithContextInterruptsLoop(t *testing.T) {
	inst, err := NewInstance(spinModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = inst.InvokeWith(ctx, "f", nil, CallOptions{})
	if !IsTrap(err, TrapInterrupted) {
		t.Fatalf("InvokeWith = %v, want TrapInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("trap does not wrap the context error: %v", err)
	}
	// The instance must remain usable after the unwind.
	res, err := inst.InvokeWith(context.Background(), "f", nil, CallOptions{Fuel: 100})
	if !IsTrap(err, TrapFuelExhausted) {
		t.Fatalf("second call = %v (res %+v), want TrapFuelExhausted", err, res)
	}
}

func TestInvokeWithFuelDeterministic(t *testing.T) {
	inst, err := NewInstance(countModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := inst.InvokeWith(context.Background(), "f", []uint64{1000}, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Values[0] != 1000 || full.Fuel == 0 {
		t.Fatalf("unmetered run = %+v", full)
	}

	var readings []uint64
	for i := 0; i < 3; i++ {
		r, err := inst.InvokeWith(context.Background(), "f", []uint64{1000},
			CallOptions{Fuel: full.Fuel / 3})
		if !IsTrap(err, TrapFuelExhausted) {
			t.Fatalf("metered run %d = %v, want TrapFuelExhausted", i, err)
		}
		readings = append(readings, r.Fuel)
	}
	if readings[0] != readings[1] || readings[1] != readings[2] {
		t.Fatalf("fuel at exhaustion not deterministic: %v", readings)
	}

	// An exact budget completes: metering must not change execution.
	r, err := inst.InvokeWith(context.Background(), "f", []uint64{1000},
		CallOptions{Fuel: full.Fuel})
	if err != nil {
		t.Fatalf("run with exact fuel: %v", err)
	}
	if r.Fuel != full.Fuel {
		t.Errorf("metered fuel %d != unmetered fuel %d", r.Fuel, full.Fuel)
	}
}

func TestInvokeWithMemoryLimit(t *testing.T) {
	// f() = memory.grow(4): old page count on success, -1 on refusal.
	m := i64m(wasm.I64Const(4), wasm.Op(wasm.OpMemoryGrow), wasm.End())

	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.InvokeWith(context.Background(), "f", nil,
		CallOptions{MemoryLimitPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != ^uint64(0) {
		t.Fatalf("grow under a 2-page cap = %d, want -1", int64(res.Values[0]))
	}

	// The cap is per-call: without it the same grow (to 5 pages, within
	// the module's declared max of 16) succeeds.
	res, err = inst.InvokeWith(context.Background(), "f", nil, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 1 {
		t.Fatalf("uncapped grow = %d, want old page count 1", int64(res.Values[0]))
	}

	// memory.grow 0 is the size-query idiom and must succeed even under
	// a cap below the current size.
	q := i64m(wasm.I64Const(0), wasm.Op(wasm.OpMemoryGrow), wasm.End())
	qi, err := NewInstance(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = qi.InvokeWith(context.Background(), "f", nil, CallOptions{MemoryLimitPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 1 {
		t.Fatalf("grow(0) under a sub-current cap = %d, want 1", int64(res.Values[0]))
	}
}

func TestMemoryGrowDeltaOverflowFails(t *testing.T) {
	// A guest-controlled delta that wraps the page count must fail with
	// -1, not shrink memory while reporting success.
	m := i64m(wasm.I64Const(-1), wasm.Op(wasm.OpMemoryGrow), wasm.End())
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != ^uint64(0) {
		t.Fatalf("wrapping grow = %d, want -1", int64(res[0]))
	}
	if got := inst.MemorySize(); got != wasm.PageSize {
		t.Fatalf("memory size after failed grow = %d, want %d", got, wasm.PageSize)
	}
}

func TestInvokeWithStackDepth(t *testing.T) {
	// f(n): n <= 0 ? 0 : f(n-1)+1 via direct recursion.
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 16, HasMax: true}, Memory64: true}}
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

	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.InvokeWith(context.Background(), "f", []uint64{100},
		CallOptions{MaxCallDepth: 10})
	if !IsTrap(err, TrapStackOverflow) {
		t.Fatalf("rec(100) under depth 10 = %v, want TrapStackOverflow", err)
	}
	// The override is per-call.
	res, err := inst.InvokeWith(context.Background(), "f", []uint64{100}, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 100 {
		t.Fatalf("rec(100) = %d, want 100", res.Values[0])
	}
}

// TestNestedInvokeWithDoesNotMaskOuterDeadline: a host callback that
// re-enters InvokeWith with its own meter (here a large fuel budget on
// a background context) must not shadow the outer call's deadline —
// checkpoints walk the meter chain.
func TestNestedInvokeWithDoesNotMaskOuterDeadline(t *testing.T) {
	m := &wasm.Module{}
	tVoid := m.AddType(wasm.FuncType{})
	tI64 := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 16, HasMax: true}, Memory64: true}}
	m.Imports = []wasm.Import{{Module: "env", Name: "reenter", TypeIdx: tVoid}}
	m.Funcs = []wasm.Function{
		// g: call the host, which re-enters spin with its own meter.
		{TypeIdx: tI64, Body: []wasm.Instr{
			wasm.Call(0), wasm.I64Const(0), wasm.End(),
		}},
		// spin: loop { br 0 }.
		{TypeIdx: tI64, Body: []wasm.Instr{
			wasm.Loop(wasm.BlockVoid), wasm.Br(0), wasm.End(),
			wasm.I64Const(0), wasm.End(),
		}},
	}
	m.Exports = []wasm.Export{
		{Name: "g", Kind: wasm.ExportFunc, Idx: 1},
		{Name: "spin", Kind: wasm.ExportFunc, Idx: 2},
	}

	linker := NewLinker()
	linker.Define("env", "reenter", HostFunc{
		Type: wasm.FuncType{},
		Fn: func(hc *HostContext, _ []uint64) ([]uint64, error) {
			// A bounded-but-large inner budget: if the chain is broken
			// the outer deadline is ignored until this runs dry, and the
			// test observes the wrong trap code instead of hanging.
			_, err := hc.Instance().InvokeWith(context.Background(), "spin", nil,
				CallOptions{Fuel: 100_000_000})
			return nil, err
		},
	})
	inst, err := NewInstance(m, Config{Linker: linker})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = inst.InvokeWith(ctx, "g", nil, CallOptions{})
	if !IsTrap(err, TrapInterrupted) {
		t.Fatalf("nested call = %v, want the outer TrapInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("outer deadline took %v to fire through the nested meter", elapsed)
	}
}

func TestInvokeWithBackgroundIsUnmetered(t *testing.T) {
	inst, err := NewInstance(countModule(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.InvokeWith(context.Background(), "f", []uint64{10}, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	if inst.meter != nil {
		t.Error("meter armed for a background-context, optionless call")
	}
}
