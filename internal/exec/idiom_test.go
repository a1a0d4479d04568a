package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"cage/internal/core"
	"cage/internal/ir"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// The straight-line opcodes (ir.Op.IsStraightLine: the idioms, the
// indexed loads and the i < n ± k head) run as straight-line code in
// the dispatch loop instead of through the shared fused-ALU block, so
// nothing but these tests ties a case's arithmetic, event charges and
// trap points to the constituent sequence it stands for. Each test
// drives a hand-built instruction through the real loop twice — once
// as the fused instruction, once as its own Constituents() — and
// requires the two runs to be indistinguishable.

const idiomLocals = 6

// idiomBench is one instance whose only function's code the tests
// replace between runs. The function takes idiomLocals i64 parameters
// (the locals an instruction under test names) and returns, bottom to
// top: the operand stack the instruction left, a marker (1 fell
// through, 2 branched), and the final locals.
type idiomBench struct {
	inst *Instance
	prog *ir.Program
	load ir.Op // the load variant this configuration lowers to
}

func newIdiomBench(t *testing.T, feats core.Features, height int) *idiomBench {
	t.Helper()
	arity := height + 1 + idiomLocals
	params := make([]wasm.ValType, idiomLocals)
	for i := range params {
		params[i] = wasm.I64
	}
	results := make([]wasm.ValType, arity)
	body := make([]wasm.Instr, 0, arity+1)
	for i := range results {
		results[i] = wasm.I64
		body = append(body, wasm.I64Const(0))
	}
	m := buildModule(params, results, nil, append(body, wasm.End())...)
	// A second function whose only job is to show which specialized
	// load opcode the configuration lowers f64.load to.
	ti := m.AddType(wasm.FuncType{})
	m.Funcs = append(m.Funcs, wasm.Function{TypeIdx: ti, Body: []wasm.Instr{
		wasm.I64Const(0), wasm.Load(wasm.OpF64Load, 0), wasm.Op(wasm.OpDrop), wasm.End()}})
	cfg := Config{Features: feats, Seed: 11}
	prog, err := LowerModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &prog.Funcs[0]
	f.MaxStack += 8 // room for any constituent sequence's peak
	f.FrameSize += 8
	cfg.Program = prog
	inst, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &idiomBench{inst: inst, prog: prog}
	for _, in := range prog.Funcs[1].Code {
		if in.Op.IsLoad() {
			b.load = in.Op
		}
	}
	if b.load == 0 {
		t.Fatal("probe function lowered without a load")
	}
	return b
}

// idiomRun is one observation: everything a caller of the instance can
// see of a run.
type idiomRun struct {
	values []uint64
	events map[string]uint64
	fuel   uint64
	code   TrapCode
	text   string
}

// run executes setup, then body(target) — body's branch, if it has
// one, must go to target — then the epilogue described at idiomBench.
func (b *idiomBench) run(setup []ir.Instr, body func(target int) []ir.Instr, args [idiomLocals]uint64, fuel uint64) idiomRun {
	n := len(body(0))
	taken := len(setup) + n + 2
	code := append(append([]ir.Instr{}, setup...), body(taken)...)
	code = append(code,
		ir.Instr{Op: ir.OpConst, A: 1},
		ir.Instr{Op: ir.OpGoto, B: uint64(taken + 1)},
		ir.Instr{Op: ir.OpConst, A: 2})
	for i := 0; i < idiomLocals; i++ {
		code = append(code, ir.Instr{Op: ir.OpLocalGet, A: uint64(i)})
	}
	setCode(b.inst, b.prog, append(code, ir.Instr{Op: ir.OpRetEnd, A: uint64(b.prog.Funcs[0].NumResults)}))

	res, err := b.inst.InvokeWith(context.Background(), "f", args[:], CallOptions{Fuel: fuel})
	r := idiomRun{values: res.Values, events: res.Events.EventCounts(), fuel: res.Fuel}
	if err != nil {
		var trap *Trap
		if !errors.As(err, &trap) {
			r.text = "not a trap: " + err.Error()
			return r
		}
		r.code, r.text = trap.Code, err.Error()
	}
	return r
}

// both runs in as itself and as its constituents and fails the test on
// any difference.
func (b *idiomBench) both(t *testing.T, what string, setup []ir.Instr, in func(target int) ir.Instr, args [idiomLocals]uint64, fuel uint64) idiomRun {
	t.Helper()
	fused := b.run(setup, func(target int) []ir.Instr { return []ir.Instr{in(target)} }, args, fuel)
	plain := b.run(setup, func(target int) []ir.Instr { return in(target).Constituents() }, args, fuel)
	if fused.code != plain.code || fused.text != plain.text {
		t.Fatalf("%s: fused trap %v %q, constituents %v %q", what, fused.code, fused.text, plain.code, plain.text)
	}
	if len(fused.values) != len(plain.values) {
		t.Fatalf("%s: fused returned %d values, constituents %d", what, len(fused.values), len(plain.values))
	}
	for i := range fused.values {
		if fused.values[i] != plain.values[i] {
			t.Fatalf("%s: value %d (stack, marker, locals): fused %#x, constituents %#x",
				what, i, fused.values[i], plain.values[i])
		}
	}
	if fused.fuel != plain.fuel || len(fused.events) != len(plain.events) {
		t.Fatalf("%s: events: fused %v, constituents %v", what, fused.events, plain.events)
	}
	for ev, n := range plain.events {
		if fused.events[ev] != n {
			t.Fatalf("%s: event %s: fused %d, constituents %d", what, ev, fused.events[ev], n)
		}
	}
	return fused
}

// idiomOperands are the 19 boundary patterns every idiom is swept over,
// pairwise: integer edges and the f64 specials as bit patterns.
var idiomOperands = [19]uint64{
	0, 1, 2, ^uint64(0), ^uint64(1), // 0, ±1, ±2
	math.MaxInt64, 1 << 63, 1<<63 + 1, // MaxInt64, MinInt64, MinInt64+1
	0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 1 << 32, // i32 edges inside an i64
	math.Float64bits(1.5), math.Float64bits(math.MaxFloat64),
	math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	math.Float64bits(math.Copysign(0, -1)),
	0x7FF8000000000001, 0xFFF0000000000001, // quiet NaN, negative signalling NaN
}

func consts(vs ...uint64) []ir.Instr {
	out := make([]ir.Instr, len(vs))
	for i, v := range vs {
		out[i] = ir.Instr{Op: ir.OpConst, A: v}
	}
	return out
}

// idiomLoadAddr is where the memory idioms' sweep loads from: base 256
// plus index 96 scaled by 8.
const idiomLoadAddr = 1024

// idiomCase builds one run of an instruction under test from three
// swept values: the operands pushed before it, the instruction (branch
// to target) and the locals.
type idiomCase struct {
	height int // operand-stack height the instruction leaves when it does not branch
	build  func(b *idiomBench, x, y, z uint64) (setup []ir.Instr, in func(target int) ir.Instr, args [idiomLocals]uint64)
}

// memIdiom is the build of the three load idioms: f64 accumulator x on
// the stack, then base 256 and index 96 scaled by the constant 8; the
// loaded value is y.
func memIdiom(op ir.Op) idiomCase {
	return idiomCase{height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		binary.LittleEndian.PutUint64(b.inst.mem[idiomLoadAddr:], y)
		return consts(x, 256, 96), func(int) ir.Instr {
			return ir.Instr{Op: op, A: 8 << 32, B: ir.PackFusedMem(8, b.load, 0, wasm.OpF64Load)}
		}, [idiomLocals]uint64{}
	}}
}

// idxLocals are the locals an indexed load under test reads — base b,
// index i, row length n, column j (A's fields in order) — chosen so
// every form addresses idiomLoadAddr with scale 8 and offset 16:
// idx1 240 + 96·8, idx2 240 + (3·30 + 6)·8, idx3 240 + 4·24·8, idx1±k
// 240 + (97 - 1)·8 and 240 + (95 + 1)·8.
var idxLocals = map[ir.Op][idiomLocals]uint64{
	ir.OpFusedIdx1Load:        {240, 96, 7, 7, 7, 7},
	ir.OpFusedIdx1LoadF64Mul:  {240, 96, 7, 7, 7, 7},
	ir.OpFusedIdx1LoadF64Add:  {240, 96, 7, 7, 7, 7},
	ir.OpFusedIdx2Load:        {240, 3, 30, 6, 7, 7},
	ir.OpFusedIdx2LoadF64Mul:  {240, 3, 30, 6, 7, 7},
	ir.OpFusedIdx3LoadF64Mul:  {240, 4, 24, 7, 7, 7},
	ir.OpFusedIdx1KLoad:       {240, 97, 7, 7, 7, 7},
	ir.OpFusedIdx1KLoadF64Add: {240, 95, 7, 7, 7, 7},
}

// idxInstr is an indexed load of locals 0–3 (those its form uses), scale
// 8 and offset 16, loading f64 through the configuration's variant; the
// idx1±k forms are A[i - 1] without a trailing op and A[i + 1] with one.
func idxInstr(op ir.Op, b *idiomBench) ir.Instr {
	a := uint64(0)<<48 | 1<<32
	var alu wasm.Opcode
	switch op {
	case ir.OpFusedIdx2Load, ir.OpFusedIdx2LoadF64Mul:
		a |= 2<<16 | 3
	case ir.OpFusedIdx3LoadF64Mul:
		a |= 2 << 16
	case ir.OpFusedIdx1KLoad:
		a, alu = a|1, wasm.OpI64Sub
	case ir.OpFusedIdx1KLoadF64Add:
		a, alu = a|1, wasm.OpI64Add
	}
	return ir.Instr{Op: op, A: a, B: ir.PackIdxMem(8, 16, ir.PackFusedMem(8, b.load, alu, wasm.OpF64Load))}
}

// idxTail reports whether an indexed load ends in an f64.mul or f64.add.
func idxTail(op ir.Op) bool {
	c := ir.Instr{Op: op}.Constituents()
	return c[len(c)-1].Op.IsNumeric()
}

// idxIdiom is the build of an indexed load: f64 x on the stack (the
// trailing op's other operand, or a bystander), the load of y.
func idxIdiom(op ir.Op) idiomCase {
	height := 2
	if idxTail(op) {
		height = 1
	}
	return idiomCase{height: height, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		binary.LittleEndian.PutUint64(b.inst.mem[idiomLoadAddr:], y)
		return consts(x), func(int) ir.Instr { return idxInstr(op, b) }, idxLocals[op]
	}}
}

// idxKIdiom is the build of an idx1±k load swept over k: f64 x on the
// stack, k the low 32 bits of z, i64.sub for odd x and i64.add for even
// (so every k meets both), and the index local whatever makes i ± k wrap
// to 96 — the load of y at idiomLoadAddr for every k, 0x80000000 and
// 0xFFFFFFFF included.
func idxKIdiom(op ir.Op) idiomCase {
	c := idxIdiom(op)
	c.build = func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		binary.LittleEndian.PutUint64(b.inst.mem[idiomLoadAddr:], y)
		alu := wasm.OpI64Add
		if x&1 != 0 {
			alu = wasm.OpI64Sub
		}
		k := uint64(uint32(z))
		in := ir.Instr{Op: op, A: 0<<48 | 1<<32 | k,
			B: ir.PackIdxMem(8, 16, ir.PackFusedMem(8, b.load, alu, wasm.OpF64Load))}
		return consts(x), func(int) ir.Instr { return in }, [idiomLocals]uint64{240, 96 - ir.IdxDelta(k, alu), 7, 7, 7, 7}
	}
	return c
}

// headKIdiom is the build of the i < n ± k head: i = x, n = y, k and the
// i64.add / i64.sub as in idxKIdiom, so n ± k overflows on the sweep's
// edges.
func headKIdiom() idiomCase {
	return idiomCase{height: 0, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		alu := wasm.OpI64Add
		if x&1 != 0 {
			alu = wasm.OpI64Sub
		}
		return nil, func(target int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedGetGetKI64LtSEqzBr, A: 0<<48 | 1<<32 | uint64(uint32(z)),
				B: ir.PackFusedBranch(uint64(alu), uint64(target))}
		}, [idiomLocals]uint64{x, y, 7, 7, 7, 7}
	}}
}

func reductionIdiom(op ir.Op, xl, yl uint64) idiomCase {
	return idiomCase{height: 0, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return consts(x, y), func(target int) ir.Instr {
			return ir.Instr{Op: op, A: xl<<32 | yl<<16 | (z&0xFF)<<8, B: ir.PackFusedBranch(0, uint64(target))}
		}, [idiomLocals]uint64{7, 7, 7, z, 7, 7}
	}}
}

func headIdiom(xl, yl uint64) idiomCase {
	return idiomCase{height: 0, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return nil, func(target int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedGetGetI64LtSEqzBr, A: xl<<32 | yl, B: ir.PackFusedBranch(0, uint64(target))}
		}, [idiomLocals]uint64{x, y}
	}}
}

// idiomCases has one entry per straight-line opcode: the indexed loads
// and the idioms.
var idiomCases = map[ir.Op]idiomCase{
	ir.OpFusedIdx1Load:        idxIdiom(ir.OpFusedIdx1Load),
	ir.OpFusedIdx1LoadF64Mul:  idxIdiom(ir.OpFusedIdx1LoadF64Mul),
	ir.OpFusedIdx2Load:        idxIdiom(ir.OpFusedIdx2Load),
	ir.OpFusedIdx2LoadF64Mul:  idxIdiom(ir.OpFusedIdx2LoadF64Mul),
	ir.OpFusedIdx3LoadF64Mul:  idxIdiom(ir.OpFusedIdx3LoadF64Mul),
	ir.OpFusedIdx1LoadF64Add:  idxIdiom(ir.OpFusedIdx1LoadF64Add),
	ir.OpFusedIdx1KLoad:       idxKIdiom(ir.OpFusedIdx1KLoad),
	ir.OpFusedIdx1KLoadF64Add: idxKIdiom(ir.OpFusedIdx1KLoadF64Add),
	ir.OpFusedIdx1: {height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return nil, func(int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedIdx1, A: 0<<48 | 1<<32, B: ir.PackIdxMem(z&0xFFFF, 0, 0)}
		}, [idiomLocals]uint64{x, y, 7, 7, 7, 7}
	}},
	ir.OpFusedGetGetKI64LtSEqzBr: headKIdiom(),
	ir.OpFusedConstI64MulAdd: {height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return consts(x, y), func(int) ir.Instr { return ir.Instr{Op: ir.OpFusedConstI64MulAdd, A: z} }, [idiomLocals]uint64{}
	}},
	ir.OpFusedConstI64MulAddLoadF64Mul: memIdiom(ir.OpFusedConstI64MulAddLoadF64Mul),
	ir.OpFusedConstI64MulAddLoadF64Add: memIdiom(ir.OpFusedConstI64MulAddLoadF64Add),
	ir.OpFusedConstI64MulAddLoadF64Sub: memIdiom(ir.OpFusedConstI64MulAddLoadF64Sub),
	ir.OpFusedGetGetI64LtSEqzBr:        headIdiom(0, 1),
	ir.OpFusedF64AddSetI64IncBr:        reductionIdiom(ir.OpFusedF64AddSetI64IncBr, 2, 3),
	ir.OpFusedF64SubSetI64IncBr:        reductionIdiom(ir.OpFusedF64SubSetI64IncBr, 2, 3),
	ir.OpFusedGet3I64MulGetAdd: {height: 2, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return nil, func(int) ir.Instr { return ir.Instr{Op: ir.OpFusedGet3I64MulGetAdd, A: 4<<48 | 0<<32 | 1<<16 | 2} },
			[idiomLocals]uint64{x, y, z, 7, x ^ z}
	}},
	ir.OpFusedConstExtendI64Add: {height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return consts(x), func(int) ir.Instr { return ir.Instr{Op: ir.OpFusedConstExtendI64Add, A: y} }, [idiomLocals]uint64{}
	}},
	ir.OpFusedConstExtendI64Sub: {height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return consts(x), func(int) ir.Instr { return ir.Instr{Op: ir.OpFusedConstExtendI64Sub, A: y} }, [idiomLocals]uint64{}
	}},
	ir.OpFusedI64IncBr: {height: 0, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return nil, func(target int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedI64IncBr, A: y & (1<<56 - 1) << 8, B: ir.PackFusedBranch(5, uint64(target))}
		}, [idiomLocals]uint64{7, 7, 7, 7, 7, x}
	}},
	ir.OpFusedGetI64MulGetAdd: {height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
		return consts(x), func(int) ir.Instr { return ir.Instr{Op: ir.OpFusedGetI64MulGetAdd, A: 3<<32 | 1} },
			[idiomLocals]uint64{7, z, 7, y}
	}},
}

// sweep runs c over the 19 × 19 operand pairs, the third value walking
// the list diagonally.
func (c idiomCase) sweep(t *testing.T, name string) {
	b := newIdiomBench(t, core.Features{}, c.height)
	for i, x := range idiomOperands {
		for j, y := range idiomOperands {
			z := idiomOperands[(i+j)%len(idiomOperands)]
			setup, in, args := c.build(b, x, y, z)
			b.both(t, name, setup, in, args, 0)
		}
	}
}

func TestIdiomsMatchConstituents(t *testing.T) {
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		if !op.IsStraightLine() {
			continue
		}
		c, ok := idiomCases[op]
		if !ok {
			t.Errorf("%v has no case in idiomCases", op)
			continue
		}
		t.Run(op.String(), func(t *testing.T) { c.sweep(t, op.String()) })
	}

	// The orders the shape handlers get right by running constituents
	// one at a time: a latch whose reduction target is its induction
	// variable (the get must see the set), and a head comparing a local
	// with itself.
	t.Run("latch x==y", func(t *testing.T) {
		reductionIdiom(ir.OpFusedF64AddSetI64IncBr, 3, 3).sweep(t, "f64.add latch, x == y")
		reductionIdiom(ir.OpFusedF64SubSetI64IncBr, 3, 3).sweep(t, "f64.sub latch, x == y")
	})
	t.Run("head x==y", func(t *testing.T) { headIdiom(1, 1).sweep(t, "head, x == y") })

	// The shape the idioms left behind still serves every other tuple,
	// and this PR moved its load constituent into the pending-ALU
	// staging: f64.div in the tail slot and an i32 address chain.
	t.Run("generic const+alu+alu+load+alu", func(t *testing.T) {
		for _, alus := range [][3]wasm.Opcode{
			{wasm.OpI64Mul, wasm.OpI64Add, wasm.OpF64Div},
			{wasm.OpI64Shl, wasm.OpI64Add, wasm.OpF64Mul},
			{wasm.OpI32Mul, wasm.OpI32Add, wasm.OpI64Xor},
		} {
			idiomCase{height: 1, build: func(b *idiomBench, x, y, z uint64) ([]ir.Instr, func(int) ir.Instr, [idiomLocals]uint64) {
				binary.LittleEndian.PutUint64(b.inst.mem[idiomLoadAddr:], y)
				scale := uint64(8)
				if alus[0] == wasm.OpI64Shl {
					scale = 3
				}
				return consts(x, 256, 96), func(int) ir.Instr {
					return ir.Instr{Op: ir.OpFusedConstALUALULoadALU, A: scale << 32,
						B: uint64(alus[1])<<40 | uint64(alus[0])<<32 | ir.PackFusedMem(8, b.load, alus[2], wasm.OpF64Load)}
				}, [idiomLocals]uint64{}
			}}.sweep(t, alus[2].String())
		}
	})

	t.Run("load traps", testIdiomLoadTraps)
	t.Run("idx1±k traps", testIdxKTraps)
	t.Run("head n±k overflow", testHeadKOverflow)
	t.Run("branches meter fuel", testIdiomBranchesMeterFuel)
}

// testIdiomLoadTraps: the memory idioms' and the indexed loads' load
// constituent faults the way the unfused load does — same trap code
// and text, same events charged before it, the trailing ALU's event
// never — under each address function, and under ModeAsync the fault
// is latched and the run completes on both sides. base is the address
// the memory idioms' base operand and the indexed loads' base local
// hold; both then add 768.
func testIdiomLoadTraps(t *testing.T) {
	cases := []struct {
		name  string
		feats core.Features
		base  uint64
		code  TrapCode
	}{
		{"bounds64 out of bounds", core.Features{}, 1 << 20, TrapOutOfBounds},
		{"mte sandbox out of bounds", core.Features{Sandbox: true, MTEMode: mte.ModeSync}, 1 << 20, TrapTagMismatch},
		{"memsafety tag mismatch", core.Features{MemSafety: true, MTEMode: mte.ModeSync},
			ptrlayout.WithTag(256, 5), TrapTagMismatch},
		{"memsafety tag mismatch latched", core.Features{MemSafety: true, MTEMode: mte.ModeAsync},
			ptrlayout.WithTag(256, 5), TrapTagMismatch},
		{"full cage tag mismatch", core.CageAll(), ptrlayout.WithTag(256, 5), TrapTagMismatch},
		{"full cage in bounds", core.CageAll(), 256, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newIdiomBench(t, tc.feats, 1)
			for _, op := range []ir.Op{ir.OpFusedConstI64MulAddLoadF64Mul,
				ir.OpFusedConstI64MulAddLoadF64Add, ir.OpFusedConstI64MulAddLoadF64Sub} {
				in := func(int) ir.Instr {
					return ir.Instr{Op: op, A: 8 << 32, B: ir.PackFusedMem(8, b.load, 0, wasm.OpF64Load)}
				}
				r := b.both(t, op.String(), consts(math.Float64bits(2.5), tc.base, 96), in, [idiomLocals]uint64{}, 0)
				if r.code != tc.code {
					t.Errorf("%v: trap %v %q, want %v", op, r.code, r.text, tc.code)
				}
				if tc.code != 0 && r.events["fmul"]+r.events["fadd"] != 0 && tc.feats.MTEMode != mte.ModeAsync {
					t.Errorf("%v: the ALU after a faulting load was charged: %v", op, r.events)
				}
			}
			for op := range idxLocals {
				locals := idxLocals[op]
				locals[0] = tc.base - 16 // the indexed loads' offset is 16
				r := b.both(t, op.String(), consts(math.Float64bits(2.5)),
					func(int) ir.Instr { return idxInstr(op, b) }, locals, 0)
				if r.code != tc.code {
					t.Errorf("%v: trap %v %q, want %v", op, r.code, r.text, tc.code)
				}
				if tc.code != 0 && r.events["fmul"]+r.events["fadd"] != 0 && tc.feats.MTEMode != mte.ModeAsync {
					t.Errorf("%v: the trailing op after a faulting load was charged: %v", op, r.events)
				}
			}
		})
	}
}

// testIdxKTraps: the idx1±k loads trap where their constituents do.
// A[i - 1] at i = 0 reads below the array — out of bounds when the array
// starts the memory, a tag mismatch when it is a tagged segment — and
// k = 0x80000000 moves the index 2^31 elements either way, past any
// memory.
func testIdxKTraps(t *testing.T) {
	memsafety := core.Features{MemSafety: true, MTEMode: mte.ModeSync}
	cases := []struct {
		name    string
		feats   core.Features
		segment bool // the base is a tagged 64-byte segment at 1024, else 0
		k       uint64
		alu     wasm.Opcode
		code    TrapCode
	}{
		{"bounds64 A[i-1] at i=0", core.Features{}, false, 1, wasm.OpI64Sub, TrapOutOfBounds},
		{"memsafety A[i-1] at i=0", memsafety, true, 1, wasm.OpI64Sub, TrapTagMismatch},
		{"full cage A[i-1] at i=0", core.CageAll(), true, 1, wasm.OpI64Sub, TrapTagMismatch},
		{"bounds64 i+0x80000000", core.Features{}, false, 0x80000000, wasm.OpI64Add, TrapOutOfBounds},
		{"bounds64 i-0x80000000", core.Features{}, false, 0x80000000, wasm.OpI64Sub, TrapOutOfBounds},
		{"memsafety i+0x80000000", memsafety, true, 0x80000000, wasm.OpI64Add, TrapOutOfBounds},
		{"memsafety i-0x80000000", memsafety, true, 0x80000000, wasm.OpI64Sub, TrapOutOfBounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newIdiomBench(t, tc.feats, 1)
			base := uint64(0)
			if tc.segment {
				var err error
				if base, err = b.inst.HostSegmentNew(1024, 64); err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range []ir.Op{ir.OpFusedIdx1KLoad, ir.OpFusedIdx1KLoadF64Add} {
				in := ir.Instr{Op: op, A: 0<<48 | 1<<32 | tc.k,
					B: ir.PackIdxMem(8, 0, ir.PackFusedMem(8, b.load, tc.alu, wasm.OpF64Load))}
				r := b.both(t, op.String(), consts(math.Float64bits(2.5)),
					func(int) ir.Instr { return in }, [idiomLocals]uint64{base, 0, 7, 7, 7, 7}, 0)
				if r.code != tc.code {
					t.Errorf("%v: trap %v %q, want %v", op, r.code, r.text, tc.code)
				}
				if r.events["fadd"] != 0 {
					t.Errorf("%v: the f64.add after a faulting load was charged: %v", op, r.events)
				}
			}
		})
	}
}

// testHeadKOverflow: the i < n ± k head wraps n ± k like its
// constituents' i64.add / i64.sub, so a bound that overflows flips the
// exit test: 0 < MaxInt64 + 1 is 0 < MinInt64, false (the loop exits),
// and 0 < MinInt64 - 1 is 0 < MaxInt64, true (it runs); the same with
// k = 0x80000000, whose i64.sub adds 2^31.
func testHeadKOverflow(t *testing.T) {
	b := newIdiomBench(t, core.Features{}, 0)
	for _, tc := range []struct {
		n, k  uint64
		alu   wasm.Opcode
		exits bool
	}{
		{math.MaxInt64, 1, wasm.OpI64Add, true},
		{1 << 63, 1, wasm.OpI64Sub, false},
		{math.MaxInt64, 0x80000000, wasm.OpI64Sub, true},
		{1 << 63, 0x80000000, wasm.OpI64Add, false},
	} {
		what := fmt.Sprintf("0 < %#x %v %#x", tc.n, tc.alu, tc.k)
		r := b.both(t, what, nil, func(target int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedGetGetKI64LtSEqzBr, A: 0<<48 | 1<<32 | tc.k,
				B: ir.PackFusedBranch(uint64(tc.alu), uint64(target))}
		}, [idiomLocals]uint64{0, tc.n, 7, 7, 7, 7}, 0)
		if exits := r.values[0] == 2; exits != tc.exits {
			t.Errorf("%s: exits %v, want %v", what, exits, tc.exits)
		}
	}
}

// testIdiomBranchesMeterFuel: a taken idiom branch is the interrupt
// checkpoint its br/br_if constituent is, so a counted loop made of a
// head and a latch idiom runs dry at the same event total as the loop
// made of their constituents. The loop is 200 iterations of ≥ 10 events,
// so one that never polls the meter finishes instead of trapping.
func testIdiomBranchesMeterFuel(t *testing.T) {
	b := newIdiomBench(t, core.Features{}, 0)
	// The heads i < n and i < n - 1, as functions of the exit target.
	heads := []func(exit int) ir.Instr{
		func(exit int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedGetGetI64LtSEqzBr, A: 0<<32 | 1, B: ir.PackFusedBranch(0, uint64(exit))}
		},
		func(exit int) ir.Instr {
			return ir.Instr{Op: ir.OpFusedGetGetKI64LtSEqzBr, A: 0<<48 | 1<<32 | 1,
				B: ir.PackFusedBranch(uint64(wasm.OpI64Sub), uint64(exit))}
		},
	}
	latches := []ir.Instr{
		{Op: ir.OpFusedI64IncBr, A: 1 << 8, B: ir.PackFusedBranch(0, 0)},
		{Op: ir.OpFusedF64AddSetI64IncBr, A: 2<<32 | 0<<16 | 1<<8},
		{Op: ir.OpFusedF64SubSetI64IncBr, A: 2<<32 | 0<<16 | 1<<8},
	}
	for _, head := range heads {
		for _, latch := range latches {
			for _, fuel := range []uint64{1, 10, 11, 12, 13, 500, 501, 502, 503, 504, 505, 506, 507} {
				loop := func(expand bool) idiomRun {
					var pre []ir.Instr
					if latch.Op != ir.OpFusedI64IncBr {
						pre = []ir.Instr{{Op: ir.OpLocalGet, A: 2}, {Op: ir.OpLocalGet, A: 3}}
					}
					return b.run(nil, func(exit int) []ir.Instr {
						h, l := head(exit), latch
						if !expand {
							return append(append([]ir.Instr{h}, pre...), l)
						}
						return append(append(h.Constituents(), pre...), l.Constituents()...)
					}, [idiomLocals]uint64{0, 200, 0, math.Float64bits(0.5)}, fuel)
				}
				fused, plain := loop(false), loop(true)
				what := fmt.Sprintf("%v, %v", head(0).Op, latch.Op)
				if fused.code != TrapFuelExhausted || plain.code != TrapFuelExhausted {
					t.Fatalf("%s fuel %d: fused %v %q, constituents %v %q",
						what, fuel, fused.code, fused.text, plain.code, plain.text)
				}
				if fused.fuel != plain.fuel || fused.text != plain.text {
					t.Fatalf("%s fuel %d: fused ran dry at %d events (%s), constituents at %d (%s)",
						what, fuel, fused.fuel, fused.text, plain.fuel, plain.text)
				}
			}
		}
	}
}
