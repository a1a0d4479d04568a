package exec

import (
	"math"
	"testing"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

func archEvBoundsCheck() arch.Event { return arch.EvBoundsCheck }

// buildModule makes a wasm64 module with one exported function "f".
func buildModule(params, results []wasm.ValType, locals []wasm.ValType, body ...wasm.Instr) *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: params, Results: results})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 16, HasMax: true}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: ti, Locals: locals, Body: body}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	return m
}

func run1(t *testing.T, cfg Config, m *wasm.Module, args ...uint64) (uint64, error) {
	t.Helper()
	inst, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := inst.Invoke("f", args...)
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		t.Fatalf("expected 1 result, got %d", len(res))
	}
	return res[0], nil
}

func i64m(body ...wasm.Instr) *wasm.Module {
	return buildModule(nil, []wasm.ValType{wasm.I64}, nil, body...)
}

func TestArithmeticBasics(t *testing.T) {
	cases := []struct {
		name string
		body []wasm.Instr
		want uint64
	}{
		{"add", []wasm.Instr{wasm.I64Const(40), wasm.I64Const(2), wasm.Op(wasm.OpI64Add), wasm.End()}, 42},
		{"sub", []wasm.Instr{wasm.I64Const(40), wasm.I64Const(2), wasm.Op(wasm.OpI64Sub), wasm.End()}, 38},
		{"mul", []wasm.Instr{wasm.I64Const(6), wasm.I64Const(7), wasm.Op(wasm.OpI64Mul), wasm.End()}, 42},
		{"divs", []wasm.Instr{wasm.I64Const(-84), wasm.I64Const(2), wasm.Op(wasm.OpI64DivS), wasm.End()}, ^uint64(41)},
		{"rem", []wasm.Instr{wasm.I64Const(47), wasm.I64Const(5), wasm.Op(wasm.OpI64RemU), wasm.End()}, 2},
		{"and", []wasm.Instr{wasm.I64Const(0xFF), wasm.I64Const(0x0F), wasm.Op(wasm.OpI64And), wasm.End()}, 0x0F},
		{"shl", []wasm.Instr{wasm.I64Const(1), wasm.I64Const(56), wasm.Op(wasm.OpI64Shl), wasm.End()}, 1 << 56},
		{"clz", []wasm.Instr{wasm.I64Const(1), wasm.Op(wasm.OpI64Clz), wasm.End()}, 63},
		{"eqz", []wasm.Instr{wasm.I64Const(0), wasm.Op(wasm.OpI64Eqz), wasm.Op(wasm.OpI64ExtendI32U), wasm.End()}, 1},
		{"lts", []wasm.Instr{wasm.I64Const(-1), wasm.I64Const(1), wasm.Op(wasm.OpI64LtS), wasm.Op(wasm.OpI64ExtendI32U), wasm.End()}, 1},
		{"ltu", []wasm.Instr{wasm.I64Const(-1), wasm.I64Const(1), wasm.Op(wasm.OpI64LtU), wasm.Op(wasm.OpI64ExtendI32U), wasm.End()}, 0},
		{"rotl", []wasm.Instr{wasm.I64Const(math.MinInt64), wasm.I64Const(1), wasm.Op(wasm.OpI64Rotl), wasm.End()}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := run1(t, Config{}, i64m(c.body...))
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestF64Arithmetic(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.F64}, nil,
		wasm.F64Const(1.5), wasm.F64Const(2.25), wasm.Op(wasm.OpF64Mul),
		wasm.F64Const(0.625), wasm.Op(wasm.OpF64Add),
		wasm.Op(wasm.OpF64Sqrt),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if f := math.Float64frombits(got); f != 2.0 {
		t.Errorf("got %v, want 2.0", f)
	}
}

func TestDivTraps(t *testing.T) {
	_, err := run1(t, Config{}, i64m(
		wasm.I64Const(1), wasm.I64Const(0), wasm.Op(wasm.OpI64DivU), wasm.End()))
	if !IsTrap(err, TrapDivByZero) {
		t.Errorf("div by zero: got %v", err)
	}
	_, err = run1(t, Config{}, i64m(
		wasm.I64Const(math.MinInt64), wasm.I64Const(-1), wasm.Op(wasm.OpI64DivS), wasm.End()))
	if !IsTrap(err, TrapIntOverflow) {
		t.Errorf("div overflow: got %v", err)
	}
}

func TestTruncTraps(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.F64Const(math.NaN()), wasm.Op(wasm.OpI64TruncF64S), wasm.End())
	if _, err := run1(t, Config{}, m); !IsTrap(err, TrapIntOverflow) {
		t.Errorf("trunc NaN: got %v", err)
	}
}

func TestControlFlowLoopSum(t *testing.T) {
	// sum 1..10 with a loop: local0 = i, local1 = acc.
	m := buildModule(nil, []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64, wasm.I64},
		wasm.Block(wasm.BlockVoid),
		wasm.Loop(wasm.BlockVoid),
		// if i >= 10 break
		wasm.LocalGet(0), wasm.I64Const(10), wasm.Op(wasm.OpI64GeS), wasm.BrIf(1),
		// i++
		wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Add), wasm.LocalSet(0),
		// acc += i
		wasm.LocalGet(1), wasm.LocalGet(0), wasm.Op(wasm.OpI64Add), wasm.LocalSet(1),
		wasm.Br(0),
		wasm.End(),
		wasm.End(),
		wasm.LocalGet(1),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestIfElse(t *testing.T) {
	mk := func(cond int32) *wasm.Module {
		return buildModule(nil, []wasm.ValType{wasm.I64}, nil,
			wasm.I32Const(cond),
			wasm.If(wasm.BlockI64),
			wasm.I64Const(111),
			wasm.Else(),
			wasm.I64Const(222),
			wasm.End(),
			wasm.End())
	}
	if got, _ := run1(t, Config{}, mk(1)); got != 111 {
		t.Errorf("true arm: %d", got)
	}
	if got, _ := run1(t, Config{}, mk(0)); got != 222 {
		t.Errorf("false arm: %d", got)
	}
}

func TestBrTable(t *testing.T) {
	mk := func(sel int32) *wasm.Module {
		return buildModule(nil, []wasm.ValType{wasm.I64}, nil,
			wasm.Block(wasm.BlockVoid),
			wasm.Block(wasm.BlockVoid),
			wasm.Block(wasm.BlockVoid),
			wasm.I32Const(sel),
			wasm.BrTable([]uint32{0, 1}, 2),
			wasm.End(),
			wasm.I64Const(100), wasm.Op(wasm.OpReturn),
			wasm.End(),
			wasm.I64Const(200), wasm.Op(wasm.OpReturn),
			wasm.End(),
			wasm.I64Const(300),
			wasm.End())
	}
	for sel, want := range map[int32]uint64{0: 100, 1: 200, 7: 300} {
		if got, err := run1(t, Config{}, mk(sel)); err != nil || got != want {
			t.Errorf("br_table(%d) = %d, %v; want %d", sel, got, err, want)
		}
	}
}

func TestDirectCall(t *testing.T) {
	m := &wasm.Module{}
	unary := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	main := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Funcs = []wasm.Function{
		{TypeIdx: unary, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.I64Const(2), wasm.Op(wasm.OpI64Mul), wasm.End()}},
		{TypeIdx: main, Body: []wasm.Instr{
			wasm.I64Const(21), wasm.Call(0), wasm.End()}},
	}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 1}}
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("call result = %d", got)
	}
}

func TestRecursionFactorialAndDepthLimit(t *testing.T) {
	m := &wasm.Module{}
	fac := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: fac, Body: []wasm.Instr{
		wasm.LocalGet(0), wasm.I64Const(2), wasm.Op(wasm.OpI64LtS),
		wasm.If(wasm.BlockI64),
		wasm.I64Const(1),
		wasm.Else(),
		wasm.LocalGet(0),
		wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Sub), wasm.Call(0),
		wasm.Op(wasm.OpI64Mul),
		wasm.End(),
		wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 3628800 {
		t.Errorf("10! = %d", res[0])
	}
	// Depth limit.
	inst2, err := NewInstance(m, Config{MaxCallDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst2.Invoke("f", 1000); !IsTrap(err, TrapStackOverflow) {
		t.Errorf("deep recursion: got %v", err)
	}
}

func TestCallIndirectAndSignatureCheck(t *testing.T) {
	m := &wasm.Module{}
	unary := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	nullary := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	main := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 4}}}
	m.Funcs = []wasm.Function{
		{TypeIdx: unary, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.I64Const(1), wasm.Op(wasm.OpI64Add), wasm.End()}},
		{TypeIdx: nullary, Body: []wasm.Instr{wasm.I64Const(7), wasm.End()}},
		{TypeIdx: main, Body: []wasm.Instr{
			wasm.I64Const(10),
			wasm.LocalGet(0),
			wasm.CallIndirect(unary),
			wasm.End()}},
	}
	m.Elems = []wasm.ElemSegment{{Offset: 0, Funcs: []uint32{0, 1}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 2}}
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 11 {
		t.Errorf("indirect call = %d", res[0])
	}
	// Entry 1 has the wrong signature.
	if _, err := inst.Invoke("f", 1); !IsTrap(err, TrapIndirectCall) {
		t.Errorf("signature mismatch: got %v", err)
	}
	// Entry 2 is null.
	if _, err := inst.Invoke("f", 2); !IsTrap(err, TrapIndirectCall) {
		t.Errorf("null entry: got %v", err)
	}
	// Entry 99 is out of range.
	if _, err := inst.Invoke("f", 99); !IsTrap(err, TrapIndirectCall) {
		t.Errorf("out of range: got %v", err)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(64), wasm.I64Const(0x1122334455667788),
		wasm.Store(wasm.OpI64Store, 0),
		wasm.I64Const(64), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Errorf("load = %#x", got)
	}
}

func TestSubWidthLoads(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(0), wasm.I32Const(-1), wasm.Store(wasm.OpI32Store8, 0),
		wasm.I64Const(0), wasm.Load(wasm.OpI64Load8S, 0),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) != -1 {
		t.Errorf("load8_s = %d, want -1", int64(got))
	}
}

func TestBoundsCheck64(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(1<<20), wasm.Load(wasm.OpI64Load, 0), // beyond 1 page
		wasm.End())
	_, err := run1(t, Config{}, m)
	if !IsTrap(err, TrapOutOfBounds) {
		t.Errorf("OOB load: got %v", err)
	}
	// The bounds check must be counted (wasm64 software sandboxing).
	inst, _ := NewInstance(buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(0), wasm.Load(wasm.OpI64Load, 0), wasm.End()), Config{})
	if _, err := inst.Invoke("f"); err != nil {
		t.Fatal(err)
	}
	if inst.Counter().Get(archEvBoundsCheck()) != 1 {
		t.Error("bounds check event not counted")
	}
}

func TestMemoryGrow(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(2), wasm.Op(wasm.OpMemoryGrow), wasm.Op(wasm.OpDrop),
		wasm.Op(wasm.OpMemorySize),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("pages after grow = %d, want 3", got)
	}
	// Growing past max fails with ^0.
	m2 := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		wasm.I64Const(100), wasm.Op(wasm.OpMemoryGrow),
		wasm.End())
	got, err = run1(t, Config{}, m2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ^uint64(0) {
		t.Errorf("grow past max = %d", got)
	}
}

func TestMemoryFillAndCopy(t *testing.T) {
	m := buildModule(nil, []wasm.ValType{wasm.I64}, nil,
		// fill [0,16) with 0xAB
		wasm.I64Const(0), wasm.I32Const(0xAB), wasm.I64Const(16), wasm.Op(wasm.OpMemoryFill),
		// copy [0,8) -> [32,40)
		wasm.I64Const(32), wasm.I64Const(0), wasm.I64Const(8), wasm.Op(wasm.OpMemoryCopy),
		wasm.I64Const(32), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xABABABABABABABAB {
		t.Errorf("fill+copy = %#x", got)
	}
}

func TestHostFunctionCall(t *testing.T) {
	m := &wasm.Module{}
	hostTy := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	main := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: "triple", TypeIdx: hostTy}}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: main, Body: []wasm.Instr{
		wasm.I64Const(14), wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 1}}
	l := NewLinker()
	l.Define("env", "triple", HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}},
		Fn: func(_ *HostContext, args []uint64) ([]uint64, error) {
			return []uint64{args[0] * 3}, nil
		},
	})
	got, err := run1(t, Config{Linker: l}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("host call = %d", got)
	}
}

// --- Cage semantics (paper Fig. 11) ---

func memSafetyCfg() Config {
	return Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}, Seed: 7}
}

func TestSegmentNewReturnsTaggedPointer(t *testing.T) {
	m := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.End())
	got, err := run1(t, memSafetyCfg(), m)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Address(got) != 64 {
		t.Errorf("tagged pointer address = %#x, want 64", ptrlayout.Address(got))
	}
	if ptrlayout.Tag(got) == 0 {
		t.Error("segment.new returned an untagged pointer")
	}
}

func TestSegmentAccessProvenance(t *testing.T) {
	// Access through the tagged pointer works; access through the raw
	// pointer traps (Fig. 11 rules 1-2).
	ok := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.LocalTee(0),
		wasm.I64Const(123), wasm.Store(wasm.OpI64Store, 0),
		wasm.LocalGet(0), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	ok.Funcs[0].Locals = []wasm.ValType{wasm.I64}
	got, err := run1(t, memSafetyCfg(), ok)
	if err != nil {
		t.Fatal(err)
	}
	if got != 123 {
		t.Errorf("tagged access = %d", got)
	}

	bad := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0), wasm.Op(wasm.OpDrop),
		wasm.I64Const(64), wasm.Load(wasm.OpI64Load, 0), // raw pointer into segment
		wasm.End())
	if _, err := run1(t, memSafetyCfg(), bad); !IsTrap(err, TrapTagMismatch) {
		t.Errorf("raw access into segment: got %v", err)
	}
}

func TestSegmentNewZeroesMemory(t *testing.T) {
	m := i64m(
		// Pre-fill [64, 96) through untagged memory.
		wasm.I64Const(64), wasm.I64Const(0x4242424242424242), wasm.Store(wasm.OpI64Store, 0),
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	got, err := run1(t, memSafetyCfg(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("segment.new did not zero memory: %#x", got)
	}
}

func TestSegmentOutOfBoundsTraps(t *testing.T) {
	m := i64m(
		wasm.I64Const(1<<20), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.End())
	if _, err := run1(t, memSafetyCfg(), m); !IsTrap(err, TrapSegment) {
		t.Errorf("OOB segment.new: got %v", err)
	}
	unaligned := i64m(
		wasm.I64Const(8), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.End())
	if _, err := run1(t, memSafetyCfg(), unaligned); !IsTrap(err, TrapSegment) {
		t.Errorf("unaligned segment.new: got %v", err)
	}
}

func TestUseAfterFreeTraps(t *testing.T) {
	m := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.LocalTee(0),
		wasm.I64Const(32), wasm.SegmentFree(0),
		wasm.LocalGet(0), wasm.Load(wasm.OpI64Load, 0), // dangling pointer
		wasm.End())
	m.Funcs[0].Locals = []wasm.ValType{wasm.I64}
	if _, err := run1(t, memSafetyCfg(), m); !IsTrap(err, TrapTagMismatch) {
		t.Errorf("use after free: got %v", err)
	}
}

func TestDoubleFreeTraps(t *testing.T) {
	m := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.LocalTee(0),
		wasm.I64Const(32), wasm.SegmentFree(0),
		wasm.LocalGet(0), wasm.I64Const(32), wasm.SegmentFree(0), // double free
		wasm.I64Const(0),
		wasm.End())
	m.Funcs[0].Locals = []wasm.ValType{wasm.I64}
	if _, err := run1(t, memSafetyCfg(), m); !IsTrap(err, TrapSegment) {
		t.Errorf("double free: got %v", err)
	}
}

func TestSegmentSetTagTransfersOwnership(t *testing.T) {
	m := i64m(
		// Segment A at 64 with tag T.
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0), wasm.LocalSet(0),
		// Transfer [128,160) to tag T via a T-tagged pointer at 128.
		wasm.I64Const(128),
		wasm.LocalGet(0), wasm.I64Const(64), wasm.Op(wasm.OpI64Add), // A-tagged ptr at 128
		wasm.I64Const(32),
		wasm.SegmentSetTag(0),
		// Access the transferred region through the T-tagged pointer.
		wasm.LocalGet(0), wasm.I64Const(64), wasm.Op(wasm.OpI64Add),
		wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	m.Funcs[0].Locals = []wasm.ValType{wasm.I64}
	if _, err := run1(t, memSafetyCfg(), m); err != nil {
		t.Errorf("set_tag ownership transfer failed: %v", err)
	}
}

func TestPointerSignAuthRoundTrip(t *testing.T) {
	cfg := Config{Features: core.Features{PtrAuth: true}, Seed: 3}
	m := i64m(
		wasm.I64Const(0x8650), wasm.PointerSign(), wasm.PointerAuth(),
		wasm.End())
	got, err := run1(t, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x8650 {
		t.Errorf("sign/auth round trip = %#x", got)
	}
}

func TestPointerAuthForgeryTraps(t *testing.T) {
	cfg := Config{Features: core.Features{PtrAuth: true}, Seed: 3}
	m := i64m(
		wasm.I64Const(0x8650), wasm.PointerSign(),
		wasm.I64Const(1<<40), wasm.Op(wasm.OpI64Xor), // corrupt the pointer
		wasm.PointerAuth(),
		wasm.End())
	if _, err := run1(t, cfg, m); !IsTrap(err, TrapAuthFailure) {
		t.Errorf("forged pointer: got %v", err)
	}
}

func TestPointerAuthCrossInstance(t *testing.T) {
	// A pointer signed in instance 1 must not authenticate in instance
	// 2 (paper §4.2: per-instance keys/modifiers).
	sign := i64m(wasm.I64Const(0x1234), wasm.PointerSign(), wasm.End())
	i1, err := NewInstance(sign, Config{Features: core.Features{PtrAuth: true}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := i1.Invoke("f")
	if err != nil {
		t.Fatal(err)
	}
	signed := res[0]

	auth := buildModule([]wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64}, nil,
		wasm.LocalGet(0), wasm.PointerAuth(), wasm.End())
	i2, err := NewInstance(auth, Config{Features: core.Features{PtrAuth: true}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := i2.Invoke("f", signed); !IsTrap(err, TrapAuthFailure) {
		t.Errorf("cross-instance reuse: got %v", err)
	}
	// Same instance still authenticates.
	i1b, err := NewInstance(auth, Config{Features: core.Features{PtrAuth: true}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := i1b.Invoke("f", signed); err != nil {
		t.Errorf("same-key auth failed: %v", err)
	}
}

func TestCageFallbackWithoutFeatures(t *testing.T) {
	// Without MemSafety, segment.new degrades to the identity so
	// unhardened platforms still run hardened binaries (paper §4.1).
	m := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.End())
	got, err := run1(t, Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64 {
		t.Errorf("fallback segment.new = %#x, want 64", got)
	}
}

// --- Sandboxing (paper Fig. 12b/13) ---

func sandboxCfg() Config {
	return Config{Features: core.Features{Sandbox: true, MTEMode: mte.ModeSync}, Seed: 11}
}

func TestMTESandboxAllowsInBounds(t *testing.T) {
	m := i64m(
		wasm.I64Const(128), wasm.I64Const(77), wasm.Store(wasm.OpI64Store, 0),
		wasm.I64Const(128), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	got, err := run1(t, sandboxCfg(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("sandboxed access = %d", got)
	}
}

func TestMTESandboxCatchesEscape(t *testing.T) {
	// Accessing beyond the linear memory hits runtime-tagged (zero)
	// granules and faults via MTE, not via a software bounds check.
	m := i64m(
		wasm.I64Const(1<<20), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	if _, err := run1(t, sandboxCfg(), m); !IsTrap(err, TrapTagMismatch) {
		t.Errorf("sandbox escape: got %v", err)
	}
}

func TestMTESandboxMasksForgedTagBits(t *testing.T) {
	// An index with forged tag bits (trying to alias the runtime's tag
	// zero) is masked before address computation (Fig. 13a).
	m := i64m(
		wasm.I64Const(int64(uint64(15)<<56|128)), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	if _, err := run1(t, sandboxCfg(), m); err != nil {
		t.Errorf("masked forged-tag access should succeed in-bounds: %v", err)
	}
}

func TestBuggyLoweringEscapesBoundsButNotMTE(t *testing.T) {
	// CVE-2023-26489 analog: with the buggy lowering, software bounds
	// checks are skipped and the guest reads host memory; under MTE
	// sandboxing the same bug still traps (paper §3, §7.4).
	leak := i64m(
		wasm.I64Const(64*1024+8), wasm.Load(wasm.OpI64Load, 0), // host region
		wasm.End())
	got, err := run1(t, Config{SkipBoundsChecks: true}, leak)
	if err != nil {
		t.Fatalf("buggy bounds-check lowering should leak, got %v", err)
	}
	if got != 0x5A5A5A5A5A5A5A5A {
		t.Errorf("leaked %#x, want host pattern", got)
	}
	cfg := sandboxCfg()
	cfg.SkipBoundsChecks = true
	if _, err := run1(t, cfg, leak); !IsTrap(err, TrapTagMismatch) {
		t.Errorf("MTE sandbox with buggy lowering: got %v", err)
	}
}

func TestSandboxTagLimit(t *testing.T) {
	// 15 sandboxes per process; the 16th must fail (paper §7.4).
	alloc := core.NewSandboxAllocator(core.NewPolicy(core.Features{Sandbox: true, MTEMode: mte.ModeSync}))
	m := i64m(wasm.I64Const(1), wasm.End())
	for i := 0; i < 15; i++ {
		cfg := sandboxCfg()
		cfg.Sandboxes = alloc
		if _, err := NewInstance(m, cfg); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	cfg := sandboxCfg()
	cfg.Sandboxes = alloc
	if _, err := NewInstance(m, cfg); err == nil {
		t.Error("16th sandbox accepted")
	}
}

func TestCombinedModeInternalPlusExternal(t *testing.T) {
	// Full Cage: segments work inside the sandbox, escapes still trap.
	m := i64m(
		wasm.I64Const(64), wasm.I64Const(32), wasm.SegmentNew(0),
		wasm.LocalTee(0),
		wasm.I64Const(99), wasm.Store(wasm.OpI64Store, 0),
		wasm.LocalGet(0), wasm.Load(wasm.OpI64Load, 0),
		wasm.End())
	m.Funcs[0].Locals = []wasm.ValType{wasm.I64}
	got, err := run1(t, Config{Features: core.CageAll(), Seed: 5}, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("combined-mode segment access = %d", got)
	}
	esc := i64m(wasm.I64Const(1<<21), wasm.Load(wasm.OpI64Load, 0), wasm.End())
	if _, err := run1(t, Config{Features: core.CageAll(), Seed: 5}, esc); !IsTrap(err, TrapTagMismatch) {
		t.Errorf("combined-mode escape: got %v", err)
	}
}

func TestWasm32GuardPages(t *testing.T) {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: false}}
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: []wasm.Instr{
		wasm.I32Const(16), wasm.I32Const(5), wasm.Store(wasm.OpI32Store, 0),
		wasm.I32Const(16), wasm.Load(wasm.OpI32Load, 0),
		wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f")
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 5 {
		t.Errorf("wasm32 access = %d", res[0])
	}
	// No bounds-check events under guard pages.
	if inst.Counter().Get(archEvBoundsCheck()) != 0 {
		t.Error("guard-page strategy counted bounds checks")
	}
	// Cage features on wasm32 must be rejected.
	if _, err := NewInstance(m, memSafetyCfg()); err == nil {
		t.Error("MemSafety accepted on 32-bit memory")
	}
}

func TestStartupTaggingAccounted(t *testing.T) {
	m := i64m(wasm.I64Const(0), wasm.End())
	m.Mems[0].Limits.Min = 4 // 256 KiB
	inst, err := NewInstance(m, sandboxCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(4*wasm.PageSize) / 16
	if inst.StartupGranulesTagged != want {
		t.Errorf("startup granules = %d, want %d", inst.StartupGranulesTagged, want)
	}
}
