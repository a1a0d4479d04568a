package exec

// Tests for the host-binding surface: the HostModule builder and typed
// adapters, struct-keyed import resolution and structured link errors, shared
// import-table snapshots, the HostContext (memory view, fuel,
// re-entrancy), and interruption of blocking host calls.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// hostCallModule builds a module importing env.f with the given type
// and exporting "go" (same type) that forwards its params to the host.
func hostCallModule(ft wasm.FuncType) *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(ft)
	m.Imports = []wasm.Import{{Module: "env", Name: "f", TypeIdx: ti}}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	body := []wasm.Instr{}
	for i := range ft.Params {
		body = append(body, wasm.LocalGet(uint32(i)))
	}
	body = append(body, wasm.Call(0), wasm.End())
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: body}}
	m.Exports = []wasm.Export{{Name: "go", Kind: wasm.ExportFunc, Idx: 1}}
	return m
}

func TestLinkerStructKeyNoCollision(t *testing.T) {
	// Historically keys were module+"."+name, so ("a.b", "c") and
	// ("a", "b.c") collided. The struct key must keep them apart.
	ft := wasm.FuncType{Results: []wasm.ValType{wasm.I64}}
	mk := func(module, name string, v uint64) *HostModule {
		return NewHostModule(module).Func(name, ft, func(*HostContext, []uint64) ([]uint64, error) {
			return []uint64{v}, nil
		})
	}
	m := &wasm.Module{}
	ti := m.AddType(ft)
	m.Imports = []wasm.Import{{Module: "a.b", Name: "c", TypeIdx: ti}, {Module: "a", Name: "b.c", TypeIdx: ti}}
	table, err := ResolveImports(m, mk("a.b", "c", 1), mk("a", "b.c", 2))
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := table.funcs[0].Fn(nil, nil)
	r2, _ := table.funcs[1].Fn(nil, nil)
	if r1[0] != 1 || r2[0] != 2 {
		t.Errorf("colliding keys resolved to %d, %d", r1[0], r2[0])
	}
}

func TestLinkErrorUnresolved(t *testing.T) {
	m := hostCallModule(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	_, err := NewInstance(m, Config{HostModules: []*HostModule{NewHostModule("other")}})
	if !errors.Is(err, ErrUnresolvedImport) {
		t.Fatalf("err = %v, want ErrUnresolvedImport", err)
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not a *LinkError", err)
	}
	if le.Module != "env" || le.Name != "f" || len(le.Want.Params) != 1 {
		t.Errorf("LinkError detail = %+v", le)
	}
}

func TestLinkErrorTypeMismatch(t *testing.T) {
	m := hostCallModule(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	Func1(hm, "f", func(*HostContext, float64) (float64, error) { return 0, nil })
	_, err := NewInstance(m, Config{HostModules: []*HostModule{hm}})
	if !errors.Is(err, ErrImportTypeMismatch) {
		t.Fatalf("err = %v, want ErrImportTypeMismatch", err)
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not a *LinkError", err)
	}
	if le.Module != "env" || le.Name != "f" {
		t.Errorf("LinkError names = %s.%s", le.Module, le.Name)
	}
	if le.Have.Params[0] != wasm.F64 || le.Want.Params[0] != wasm.I64 {
		t.Errorf("LinkError types: have %v want %v", le.Have, le.Want)
	}
}

func TestTypedAdapterSignatures(t *testing.T) {
	hm := NewHostModule("m")
	Func2(hm, "add", func(_ *HostContext, a, b int64) (int64, error) { return a + b, nil })
	Func1(hm, "sqrt", func(_ *HostContext, x float64) (float64, error) { return math.Sqrt(x), nil })
	Void1(hm, "log", func(_ *HostContext, _ Str) error { return nil })
	Func1(hm, "trunc", func(_ *HostContext, x uint32) (int32, error) { return int32(x), nil })
	want := map[string]wasm.FuncType{
		"add":   {Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}},
		"sqrt":  {Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}},
		"log":   {Params: []wasm.ValType{wasm.I64, wasm.I64}}, // Str = (ptr, len)
		"trunc": {Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}},
	}
	for name, ft := range want {
		hf, ok := hm.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if !hf.Type.Equal(ft) {
			t.Errorf("%s lowered to %v, want %v", name, hf.Type, ft)
		}
	}

	hm32 := NewHostModule("m32").Ptr32()
	Void1(hm32, "log", func(_ *HostContext, _ Str) error { return nil })
	hf, _ := hm32.Lookup("log")
	if want := (wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}}); !hf.Type.Equal(want) {
		t.Errorf("ILP32 Str lowered to %v, want %v", hf.Type, want)
	}
}

func TestTypedAdapterMarshalling(t *testing.T) {
	m := hostCallModule(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	Func2(hm, "f", func(_ *HostContext, a, b int64) (int64, error) { return a*10 + b, nil })
	inst, err := NewInstance(m, Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("go", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Errorf("typed add = %d", res[0])
	}
}

func TestStrParamUntagsPointer(t *testing.T) {
	// A Str parameter must strip MTE tag bits before the memory read,
	// the way every guest access does.
	hm := NewHostModule("env")
	var got string
	Void1(hm, "f", func(_ *HostContext, s Str) error { got = string(s); return nil })
	m := &wasm.Module{}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	copy(inst.Memory()[64:], "hello")
	hf, _ := hm.Lookup("f")
	tagged := ptrlayout.WithTag(64, 7)
	if _, err := hf.Fn(inst.HostContext(nil), []uint64{tagged, 5}); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("Str param = %q", got)
	}
}

func TestMemoryViewBounds(t *testing.T) {
	m := &wasm.Module{}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem := inst.HostContext(nil).Memory()
	if mem.Size() != wasm.PageSize {
		t.Fatalf("size = %d", mem.Size())
	}
	// In-bounds round trip.
	if err := mem.WriteU64(128, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := mem.ReadU64(128)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("round trip = %#x, %v", v, err)
	}
	// Overflow-safe: addr+n wraps uint64.
	if _, err := mem.ReadU64(math.MaxUint64 - 3); err == nil {
		t.Error("wrapping read not rejected")
	}
	if err := mem.WriteBytes(wasm.PageSize-4, make([]byte, 8)); err == nil {
		t.Error("straddling write not rejected")
	}
	if _, err := mem.ReadBytes(0, math.MaxUint64); err == nil {
		t.Error("oversized read not rejected")
	}
	// Accesses are charged to the timing model.
	before := inst.Counter().Total()
	_, _ = mem.ReadU32(0)
	_ = mem.WriteU32(0, 1)
	if inst.Counter().Total() != before+2 {
		t.Errorf("memory view accesses not charged (delta %d)", inst.Counter().Total()-before)
	}
}

func TestConsumeFuelDebitsMeterChain(t *testing.T) {
	m := hostCallModule(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	Func0(hm, "f", func(hc *HostContext) (int64, error) {
		if err := hc.ConsumeFuel(1_000_000); err != nil {
			return 0, err
		}
		return 1, nil
	})
	inst, err := NewInstance(m, Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	// Unmetered: the debit records events but nothing trips.
	if _, err := inst.InvokeWith(context.Background(), "go", nil, CallOptions{}); err != nil {
		t.Fatalf("unmetered: %v", err)
	}
	// Metered: the host-side debit exhausts the budget.
	_, err = inst.InvokeWith(context.Background(), "go", nil, CallOptions{Fuel: 1000})
	if !IsTrap(err, TrapFuelExhausted) {
		t.Fatalf("metered = %v, want TrapFuelExhausted", err)
	}
}

// reentrantModule exports "g" (calls the host) and "spin" (infinite
// loop) for host re-entrancy tests.
func reentrantModule() *wasm.Module {
	m := &wasm.Module{}
	tVoid := m.AddType(wasm.FuncType{})
	tI64 := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Imports = []wasm.Import{{Module: "env", Name: "reenter", TypeIdx: tVoid}}
	m.Funcs = []wasm.Function{
		{TypeIdx: tI64, Body: []wasm.Instr{wasm.Call(0), wasm.I64Const(0), wasm.End()}},
		{TypeIdx: tI64, Body: []wasm.Instr{
			wasm.Loop(wasm.BlockVoid), wasm.Br(0), wasm.End(),
			wasm.I64Const(0), wasm.End(),
		}},
	}
	m.Exports = []wasm.Export{
		{Name: "g", Kind: wasm.ExportFunc, Idx: 1},
		{Name: "spin", Kind: wasm.ExportFunc, Idx: 2},
	}
	return m
}

func TestHostReentrancyUnderFuelExhaustion(t *testing.T) {
	// The host re-enters the guest through HostContext.Call with an
	// unbounded inner call; the outer fuel budget must still stop the
	// inner spin via the meter chain.
	hm := NewHostModule("env")
	Void0(hm, "reenter", func(hc *HostContext) error {
		_, err := hc.Call(context.Background(), "spin", nil)
		return err
	})
	inst, err := NewInstance(reentrantModule(), Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.InvokeWith(context.Background(), "g", nil, CallOptions{Fuel: 10_000})
	if !IsTrap(err, TrapFuelExhausted) {
		t.Fatalf("re-entrant spin under outer budget = %v, want TrapFuelExhausted", err)
	}
}

func TestHostReentrancyUnderCancellation(t *testing.T) {
	// Same shape, but the outer bound is a deadline: the inner spin
	// (entered with the host call's context via ctx=nil) must be
	// interrupted by the outer watcher.
	hm := NewHostModule("env")
	Void0(hm, "reenter", func(hc *HostContext) error {
		_, err := hc.Call(nil, "spin", nil)
		return err
	})
	inst, err := NewInstance(reentrantModule(), Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = inst.InvokeWith(ctx, "g", nil, CallOptions{})
	if !IsTrap(err, TrapInterrupted) {
		t.Fatalf("re-entrant spin under deadline = %v, want TrapInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("trap does not wrap the context error: %v", err)
	}
}

func TestHostContextAcrossReentry(t *testing.T) {
	// Every crossing of an instance shares one HostContext, so what a
	// host function reads through it must follow the call in flight: the
	// nested crossing of a re-entrant call made under another context
	// sees that context, and the outer host function finds its own
	// again once the inner call has returned.
	type who struct{}
	outer := context.WithValue(context.Background(), who{}, "outer")
	inner := context.WithValue(context.Background(), who{}, "inner")
	var seen []any
	hm := NewHostModule("env")
	Void0(hm, "reenter", func(hc *HostContext) error {
		seen = append(seen, hc.Context().Value(who{}))
		if len(seen) > 1 {
			return nil // the nested crossing
		}
		_, err := hc.Call(inner, "g", nil)
		seen = append(seen, hc.Context().Value(who{}))
		return err
	})
	inst, err := NewInstance(reentrantModule(), Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.InvokeWith(outer, "g", nil, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	if want := []any{"outer", "inner", "outer"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("contexts seen by the host = %v, want %v", seen, want)
	}
}

func TestBlockingHostCallInterrupted(t *testing.T) {
	// A host function that blocks on its context must be interruptible:
	// when the deadline fires, returning ctx.Err() becomes
	// TrapInterrupted, not a generic host trap.
	m := hostCallModule(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	Func0(hm, "f", func(hc *HostContext) (int64, error) {
		<-hc.Context().Done() // a blocking syscall standing in
		return 0, hc.Context().Err()
	})
	inst, err := NewInstance(m, Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = inst.InvokeWith(ctx, "go", nil, CallOptions{})
	if !IsTrap(err, TrapInterrupted) {
		t.Fatalf("blocking host call = %v, want TrapInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("interruption took %v", elapsed)
	}
}

func TestCancellationDuringHostCallPostCheck(t *testing.T) {
	// Even a host function that returns success after the deadline
	// fired must not let guest execution continue: the post-host meter
	// check traps.
	m := hostCallModule(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	Func0(hm, "f", func(hc *HostContext) (int64, error) {
		<-hc.Context().Done()
		return 7, nil // swallows the cancellation
	})
	inst, err := NewInstance(m, Config{HostModules: []*HostModule{hm}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = inst.InvokeWith(ctx, "go", nil, CallOptions{})
	if !IsTrap(err, TrapInterrupted) {
		t.Fatalf("post-host check = %v, want TrapInterrupted", err)
	}
}

func TestImportTableSharedAcrossInstances(t *testing.T) {
	m := hostCallModule(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	hm := NewHostModule("env")
	calls := 0
	Func1(hm, "f", func(_ *HostContext, v int64) (int64, error) { calls++; return v + 1, nil })
	table, err := ResolveImports(m, hm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inst, err := NewInstance(m, Config{Imports: table})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := inst.Invoke("go", uint64(i)); err != nil || res[0] != uint64(i)+1 {
			t.Fatalf("instance %d: %v %v", i, res, err)
		}
	}
	if calls != 3 {
		t.Errorf("host calls = %d", calls)
	}
	// A snapshot for a different module is rejected.
	other := hostCallModule(wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.F64}})
	if _, err := NewInstance(other, Config{Imports: table}); err == nil {
		t.Error("mismatched import table accepted")
	}
}

func TestHostModuleFreeze(t *testing.T) {
	hm := NewHostModule("env")
	Func0(hm, "f", func(*HostContext) (int64, error) { return 0, nil })
	if _, err := ResolveImports(&wasm.Module{}, hm); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("defining on a frozen module did not panic")
		}
	}()
	Func0(hm, "late", func(*HostContext) (int64, error) { return 0, nil })
}

func TestDuplicateHostFunctionAcrossModules(t *testing.T) {
	a := NewHostModule("env")
	Func0(a, "f", func(*HostContext) (int64, error) { return 1, nil })
	b := NewHostModule("env")
	Func0(b, "f", func(*HostContext) (int64, error) { return 2, nil })
	if _, err := ResolveImports(&wasm.Module{}, a, b); err == nil {
		t.Error("duplicate env.f across modules not rejected")
	}
}
