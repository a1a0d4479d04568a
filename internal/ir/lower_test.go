package ir

import (
	"strings"
	"testing"

	"cage/internal/wasm"
)

func lowerBody(t *testing.T, cfg Config, typ wasm.FuncType, locals []wasm.ValType, body ...wasm.Instr) Func {
	t.Helper()
	m := &wasm.Module{
		Types: []wasm.FuncType{typ},
		Funcs: []wasm.Function{{TypeIdx: 0, Locals: locals, Body: body}},
	}
	p, err := Lower(m, cfg)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return p.Funcs[0]
}

func checkCode(t *testing.T, fn Func, want []string) {
	t.Helper()
	var got []string
	for _, in := range fn.Code {
		got = append(got, in.String())
	}
	if len(got) != len(want) {
		t.Fatalf("lowered to %d instructions, want %d:\n got: %s\nwant: %s",
			len(got), len(want), strings.Join(got, " | "), strings.Join(want, " | "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLowerLoopInBlock is the codegen's for-loop shape: a loop nested
// in a block, exit via br_if to the block end, back-edge via br to the
// loop header. The golden stream pins absolute branch targets.
func TestLowerLoopInBlock(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}}, nil,
		wasm.Block(wasm.BlockVoid),
		wasm.Loop(wasm.BlockVoid),
		wasm.LocalGet(0),
		wasm.Op(wasm.OpI64Eqz),
		wasm.BrIf(1), // exit the block
		wasm.LocalGet(0),
		wasm.I64Const(1),
		wasm.Op(wasm.OpI64Sub),
		wasm.LocalSet(0),
		wasm.Br(0), // loop back-edge
		wasm.Op(wasm.OpEnd),
		wasm.Op(wasm.OpEnd),
		wasm.LocalGet(0),
		wasm.Op(wasm.OpEnd),
	)
	checkCode(t, fn, []string{
		"local.get 0",
		"i64.eqz",
		"br_if ->8 keep=0 arity=0",
		"local.get 0",
		"const 0x1",
		"i64.sub",
		"local.set 0",
		"br ->0 keep=0 arity=0",
		"local.get 0",
		"ret_end arity=1",
	})
	if fn.MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", fn.MaxStack)
	}
	if fn.NumParams != 1 || fn.NumResults != 1 || fn.NumLocals != 0 {
		t.Errorf("signature = (%d,%d,%d), want (1,1,0)", fn.NumParams, fn.NumResults, fn.NumLocals)
	}
}

// TestLowerIfElse pins the conditional shape: if lowers to a br_ifz to
// the else arm, the then-arm ends with an uncounted goto over it.
func TestLowerIfElse(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}}, nil,
		wasm.LocalGet(0),
		wasm.If(wasm.BlockI64),
		wasm.I64Const(1),
		wasm.Op(wasm.OpElse),
		wasm.I64Const(2),
		wasm.Op(wasm.OpEnd),
		wasm.Op(wasm.OpEnd),
	)
	checkCode(t, fn, []string{
		"local.get 0",
		"br_ifz ->4 keep=0 arity=0",
		"const 0x1",
		"goto ->5",
		"const 0x2",
		"ret_end arity=1",
	})
}

// TestLowerIfNoElse: with no else arm the false edge lands after the
// end.
func TestLowerIfNoElse(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}},
		[]wasm.ValType{wasm.I64},
		wasm.LocalGet(0),
		wasm.If(wasm.BlockVoid),
		wasm.I64Const(7),
		wasm.LocalSet(1),
		wasm.Op(wasm.OpEnd),
		wasm.LocalGet(1),
		wasm.Op(wasm.OpEnd),
	)
	checkCode(t, fn, []string{
		"local.get 0",
		"br_ifz ->4 keep=0 arity=0",
		"const 0x7",
		"local.set 1",
		"local.get 1",
		"ret_end arity=1",
	})
}

// TestLowerBrTable pins br_table resolution: entries through nested
// blocks get their own keep/arity/PC, loops resolve to the header.
func TestLowerBrTable(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}}, nil,
		wasm.Block(wasm.BlockVoid),
		wasm.Block(wasm.BlockVoid),
		wasm.LocalGet(0),
		wasm.BrTable([]uint32{0, 1}, 1),
		wasm.Op(wasm.OpEnd),
		wasm.I64Const(10),
		wasm.Op(wasm.OpReturn),
		wasm.Op(wasm.OpEnd),
		wasm.I64Const(20),
		wasm.Op(wasm.OpEnd),
	)
	checkCode(t, fn, []string{
		"local.get 0",
		"br_table ->2(keep=0,arity=0) ->4(keep=0,arity=0) default=->4(keep=0,arity=0)",
		"const 0xa",
		"return arity=1",
		"const 0x14",
		"ret_end arity=1",
	})
}

// TestLowerDeadCode: instructions after an unconditional branch are
// never emitted; the stream stays dense.
func TestLowerDeadCode(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{}, nil,
		wasm.Block(wasm.BlockVoid),
		wasm.Br(0),
		wasm.I64Const(5), // dead
		wasm.Op(wasm.OpDrop),
		wasm.Op(wasm.OpEnd),
		wasm.Op(wasm.OpEnd),
	)
	checkCode(t, fn, []string{
		"br ->1 keep=0 arity=0",
		"ret_end arity=0",
	})
}

// TestLowerBranchCarriesResult: a br out of a value-producing block
// records arity 1 and the height to truncate to.
func TestLowerBranchCarriesResult(t *testing.T) {
	fn := lowerBody(t, Config{Mode: ModeBounds64},
		wasm.FuncType{Results: []wasm.ValType{wasm.I64}}, nil,
		wasm.I64Const(99), // padding under the block
		wasm.Block(wasm.BlockI64),
		wasm.I64Const(42),
		wasm.Br(0),
		wasm.Op(wasm.OpEnd),
		wasm.Op(wasm.OpSelect), // dead filler never emitted? no — reachable via end
		wasm.Op(wasm.OpEnd),
	)
	// Stack at block entry is 1 (the padding const), so the branch
	// keeps height 1 and carries 1 value; select then consumes
	// [padding, blockresult, ...] — it is only here to prove depth
	// bookkeeping, not to run.
	_ = fn
	want := "br ->3 keep=1 arity=1"
	if got := fn.Code[2].String(); got != want {
		t.Errorf("branch = %q, want %q", got, want)
	}
}

// TestLowerMemorySpecialization: the same load/store body lowers to
// mode-specific opcodes chosen by the config.
func TestLowerMemorySpecialization(t *testing.T) {
	cases := []struct {
		cfg   Config
		load  Op
		store Op
	}{
		{Config{Mode: ModeGuard32}, OpLoadG32, OpStoreG32},
		{Config{Mode: ModeGuard32, SkipBounds: true}, OpLoadG32NC, OpStoreG32NC},
		{Config{Mode: ModeBounds64}, OpLoadB64, OpStoreB64},
		{Config{Mode: ModeBounds64, MemSafety: true}, OpLoadB64Tag, OpStoreB64Tag},
		{Config{Mode: ModeBounds64, SkipBounds: true}, OpLoadB64NC, OpStoreB64NC},
		{Config{Mode: ModeBounds64, SkipBounds: true, MemSafety: true}, OpLoadB64NCTag, OpStoreB64NCTag},
		{Config{Mode: ModeMTE64}, OpLoadMTE, OpStoreMTE},
		{Config{Mode: ModeMTE64, SkipBounds: true}, OpLoadMTENC, OpStoreMTENC},
	}
	for _, tc := range cases {
		vt := wasm.I64
		loadOp, storeOp := wasm.OpI64Load, wasm.OpI64Store
		if tc.cfg.Mode == ModeGuard32 {
			vt = wasm.I32
			loadOp, storeOp = wasm.OpI32Load, wasm.OpI32Store
		}
		fn := lowerBody(t, tc.cfg,
			wasm.FuncType{Params: []wasm.ValType{vt}}, nil,
			wasm.LocalGet(0),
			wasm.Load(loadOp, 8),
			wasm.Op(wasm.OpDrop),
			wasm.LocalGet(0),
			wasm.LocalGet(0),
			wasm.Store(storeOp, 16),
			wasm.Op(wasm.OpEnd),
		)
		if got := fn.Code[1].Op; got != tc.load {
			t.Errorf("%+v: load lowered to %v, want %v", tc.cfg, got, tc.load)
		}
		if got := fn.Code[5].Op; got != tc.store {
			t.Errorf("%+v: store lowered to %v, want %v", tc.cfg, got, tc.store)
		}
		if off := fn.Code[1].A; off != 8 {
			t.Errorf("load offset = %d, want 8", off)
		}
		if sz := MemSize(fn.Code[1].B); sz != loadOp.AccessSize() {
			t.Errorf("load size = %d, want %d", sz, loadOp.AccessSize())
		}
		if op := MemOp(fn.Code[1].B); op != loadOp {
			t.Errorf("load op = %v, want %v", op, loadOp)
		}
	}
}

// TestLowerPtrAuthSpecialization: pointer instructions keep their cost
// event but lower to no-ops when PAC is off.
func TestLowerPtrAuthSpecialization(t *testing.T) {
	body := []wasm.Instr{
		wasm.LocalGet(0),
		wasm.PointerSign(),
		wasm.PointerAuth(),
		wasm.Op(wasm.OpDrop),
		wasm.Op(wasm.OpEnd),
	}
	typ := wasm.FuncType{Params: []wasm.ValType{wasm.I64}}
	on := lowerBody(t, Config{Mode: ModeBounds64, PtrAuth: true}, typ, nil, body...)
	if on.Code[1].Op != OpPtrSign || on.Code[2].Op != OpPtrAuth {
		t.Errorf("PtrAuth on: got %v, %v", on.Code[1].Op, on.Code[2].Op)
	}
	off := lowerBody(t, Config{Mode: ModeBounds64}, typ, nil, body...)
	if off.Code[1].Op != OpPtrSignNop || off.Code[2].Op != OpPtrAuthNop {
		t.Errorf("PtrAuth off: got %v, %v", off.Code[1].Op, off.Code[2].Op)
	}
}

// TestLowerRejectsMalformed: lowering errors (not panics) on broken
// bodies, since caches may lower ahead of validation.
func TestLowerRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		typ  wasm.FuncType
		body []wasm.Instr
	}{
		{"unbalanced-block", wasm.FuncType{}, []wasm.Instr{
			wasm.Block(wasm.BlockVoid), wasm.Op(wasm.OpEnd),
		}},
		{"branch-too-deep", wasm.FuncType{}, []wasm.Instr{
			wasm.Br(7), wasm.Op(wasm.OpEnd),
		}},
		{"stack-underflow", wasm.FuncType{}, []wasm.Instr{
			wasm.Op(wasm.OpDrop), wasm.Op(wasm.OpEnd),
		}},
		{"call-out-of-range", wasm.FuncType{}, []wasm.Instr{
			wasm.Call(42), wasm.Op(wasm.OpEnd),
		}},
		{"missing-end", wasm.FuncType{}, []wasm.Instr{
			wasm.Op(wasm.OpNop),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &wasm.Module{
				Types: []wasm.FuncType{tc.typ},
				Funcs: []wasm.Function{{TypeIdx: 0, Body: tc.body}},
			}
			if _, err := Lower(m, Config{}); err == nil {
				t.Error("Lower accepted a malformed body")
			}
		})
	}
}

// TestProgramMatches covers the compatibility gate instances apply to
// shared cached programs.
func TestProgramMatches(t *testing.T) {
	m := &wasm.Module{
		Types: []wasm.FuncType{{}},
		Funcs: []wasm.Function{{TypeIdx: 0, Body: []wasm.Instr{wasm.Op(wasm.OpEnd)}}},
	}
	cfg := Config{Mode: ModeBounds64, MemSafety: true}
	p, err := Lower(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(m, cfg) {
		t.Error("program does not match its own module/config")
	}
	if p.Matches(m, Config{Mode: ModeBounds64}) {
		t.Error("program matched a different config")
	}
	m2 := &wasm.Module{Types: m.Types, Funcs: append([]wasm.Function{}, m.Funcs[0], m.Funcs[0])}
	if p.Matches(m2, cfg) {
		t.Error("program matched a module with a different function count")
	}
	if (*Program)(nil).Matches(m, cfg) {
		t.Error("nil program matched")
	}
}

// TestOpSpaceDense pins the density rule the dispatch loop's jump table
// depends on (see Op): named and fused opcodes are one contiguous block
// below the numerics, and every opcode in it has a mnemonic of its own
// — an opcode appended outside its block, or without a name, fails
// here instead of silently turning `switch in.Op` back into a compare
// chain.
func TestOpSpaceDense(t *testing.T) {
	if OpFusedBase != numNamedOps {
		t.Errorf("OpFusedBase = %#x, want numNamedOps = %#x: a hole between the named and the fused opcodes",
			uint16(OpFusedBase), uint16(numNamedOps))
	}
	if endFusedOps > OpNumericBase {
		t.Errorf("endFusedOps = %#x overlaps the numeric block at %#x", uint16(endFusedOps), uint16(OpNumericBase))
	}
	if len(opNames) != int(numNamedOps) {
		t.Errorf("opNames has %d entries, the named block %d", len(opNames), numNamedOps)
	}
	byName := make(map[string]Op, endFusedOps)
	for op := Op(0); op < endFusedOps; op++ {
		name := op.String()
		if strings.HasPrefix(name, "irop(") {
			t.Errorf("op %#x has no mnemonic", uint16(op))
			continue
		}
		if prev, taken := byName[name]; taken {
			t.Errorf("ops %#x and %#x share the mnemonic %q", uint16(prev), uint16(op), name)
		}
		byName[name] = op
		if op.IsFused() != (op >= numNamedOps) {
			t.Errorf("%s: IsFused = %v", name, op.IsFused())
		}
	}
}
