package exec

import (
	"math"
	"testing"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// TestFusedALUKindsMatchSlowPath pins the dense ALU key of the dispatch
// loop's shared fusedALU block: aluKind names each inlined kind exactly
// once, and an opcode the block runs inline produces the value the
// shared numeric ALU (the block's kind-0 fallback, and what an unfused
// instruction outside the loop's fast path runs) produces for it, on
// boundary operands, and the events the ir table prices the op at. The
// inline side runs through the dispatch loop itself — a hand-built
// `const a; fused.const+alu b op` program — so a case attached to the
// wrong kind, or a kind without a case, fails here.
func TestFusedALUKindsMatchSlowPath(t *testing.T) {
	inlined := map[uint8]wasm.Opcode{}
	for op, k := range aluKind {
		if k == aluSlow {
			continue
		}
		if k >= numALUKinds {
			t.Fatalf("aluKind[%v] = %d, beyond the %d kinds", wasm.Opcode(op), k, numALUKinds-1)
		}
		if prev, dup := inlined[k]; dup {
			t.Fatalf("kind %d names both %v and %v", k, prev, wasm.Opcode(op))
		}
		inlined[k] = wasm.Opcode(op)
	}
	if len(inlined) != int(numALUKinds)-1 {
		t.Fatalf("aluKind names %d kinds, want %d", len(inlined), numALUKinds-1)
	}

	m := i64m(wasm.I64Const(0), wasm.I64Const(0), wasm.Op(wasm.OpI64Add), wasm.End())
	prog, err := LowerModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	code := []ir.Instr{{Op: ir.OpConst}, {Op: ir.OpFusedConstALU}, {Op: ir.OpRetEnd, A: 1}}
	setCode(nil, prog, code) // same frame: no locals, two operand slots, one result
	var ctr arch.Counter
	inst, err := NewInstance(m, Config{Program: prog, Counter: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	operands := []uint64{
		0, 1, 2, 31, 32, 63, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 1 << 32,
		math.MaxInt64, 1 << 63, math.MaxUint64,
		math.Float64bits(1.5), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.MaxFloat64),
		math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()),
	}
	for _, op := range inlined {
		for _, a := range operands {
			for _, b := range operands {
				code[0].A, code[1].A, code[1].B = a, b, uint64(op)
				setCode(inst, prog, code)
				before := ctr.Snapshot()
				res, err := inst.Invoke("f")
				if err != nil {
					t.Fatalf("%v(%#x, %#x) inline: %v", op, a, b, err)
				}
				fast := ctr.DeltaSince(before)

				stack := []uint64{a, b}
				n, err := inst.numeric(op, stack, len(stack))
				if err != nil {
					t.Fatalf("%v(%#x, %#x) slow: %v", op, a, b, err)
				}
				if want := stack[n-1]; res[0] != want {
					t.Errorf("%v(%#x, %#x): inline %#x, numeric %#x", op, a, b, res[0], want)
				}

				var want arch.Counter
				want.Add(arch.EvConst, 2) // the two constants the program pushed
				for _, ev := range (ir.OpNumericBase + ir.Op(op)).Events() {
					want.Add(ev, 1)
				}
				if fast != want || len((ir.OpNumericBase+ir.Op(op)).Events()) != 1 {
					t.Errorf("%v(%#x, %#x): inline events %v, the table's %v",
						op, a, b, fast.EventCounts(), want.EventCounts())
				}
			}
		}
	}
}

// TestNaNRule pins the rule every binary float op follows (f64NaN): a
// NaN result is the first operand that is a NaN, quieted, and only when
// neither operand is one the NaN the hardware made. It holds in numeric
// and at the dispatch loop's inline f64 sites — the unfused fast path,
// the fused-ALU block and the load block's trailing op — whatever
// operand order the compiler gave each site; the idiom sweep ties every
// other inline site to these.
func TestNaNRule(t *testing.T) {
	const (
		sa = 0x7FF0000000000001 // signalling, payload 1
		sb = 0xFFF4000000000002 // negative signalling, payload 2 + 1<<50
		qa = sa | 1<<51
		qb = sb | 1<<51
		qc = 0x7FF8000000000003 // quiet, payload 3
	)
	one, inf := math.Float64bits(1.5), math.Float64bits(math.Inf(1))
	rows := []struct {
		a, b uint64
		want uint64 // 0: a NaN of the hardware's choosing
	}{
		{sa, sb, qa}, {sb, sa, qb}, {qc, sb, qc}, {sb, qc, qb},
		{one, sb, qb}, {sa, one, qa}, {inf, qc, qc},
	}
	// Per op, two numbers whose result is a NaN: ∞ - ∞, 0 · ∞, 0 / 0.
	makers := map[wasm.Opcode][2]uint64{
		wasm.OpF64Add: {inf, math.Float64bits(math.Inf(-1))}, wasm.OpF64Sub: {inf, inf},
		wasm.OpF64Mul: {0, inf}, wasm.OpF64Div: {0, 0},
	}
	m := i64m(wasm.I64Const(0), wasm.I64Const(0), wasm.Op(wasm.OpI64Add), wasm.End())
	prog, err := LowerModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(m, Config{Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	b := newIdiomBench(t, core.Features{}, 1)
	for _, op := range []wasm.Opcode{wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div} {
		for _, r := range append(rows, struct{ a, b, want uint64 }{makers[op][0], makers[op][1], 0}) {
			var got [4]uint64
			paths := []string{"numeric", "unfused", "fused-ALU", "load block"}
			stack := []uint64{r.a, r.b}
			n, err := inst.numeric(op, stack, len(stack))
			if err != nil {
				t.Fatal(err)
			}
			got[0] = stack[n-1]
			for i, code := range [][]ir.Instr{
				{{Op: ir.OpConst, A: r.a}, {Op: ir.OpConst, A: r.b}, {Op: ir.OpNumericBase + ir.Op(op)}},
				{{Op: ir.OpConst, A: r.a}, {Op: ir.OpFusedConstALU, A: r.b, B: uint64(op)}},
			} {
				setCode(inst, prog, append(code, ir.Instr{Op: ir.OpRetEnd, A: 1}))
				res, err := inst.Invoke("f")
				if err != nil {
					t.Fatal(err)
				}
				got[1+i] = res[0]
			}
			// x OP A[i], x on the stack and b loaded: idx1+load+f64.mul
			// and +f64.add, and the f64.sub idiom. There is no f64.div.
			loadOp := map[wasm.Opcode]ir.Op{wasm.OpF64Add: ir.OpFusedIdx1LoadF64Add,
				wasm.OpF64Mul: ir.OpFusedIdx1LoadF64Mul, wasm.OpF64Sub: ir.OpFusedConstI64MulAddLoadF64Sub}[op]
			if loadOp != 0 {
				c := idiomCases[loadOp]
				setup, in, args := c.build(b, r.a, r.b, 0)
				run := b.run(setup, func(int) []ir.Instr { return []ir.Instr{in(0)} }, args, 0)
				if run.text != "" {
					t.Fatalf("%v: %s", loadOp, run.text)
				}
				got[3] = run.values[0]
			} else {
				paths = paths[:3]
			}
			for i, p := range paths {
				if r.want == 0 && !isNaN64(got[i]) || r.want != 0 && got[i] != r.want {
					t.Errorf("%v(%#x, %#x) on the %s path = %#x, want %#x", op, r.a, r.b, p, got[i], r.want)
				}
				if got[i] != got[0] {
					t.Errorf("%v(%#x, %#x): %s path %#x, numeric %#x", op, r.a, r.b, p, got[i], got[0])
				}
			}
		}
	}
}

// TestNaNRuleF32: numeric, the only path f32 arithmetic takes, follows
// the same rule (f32NaN) at 32 bits.
func TestNaNRuleF32(t *testing.T) {
	const (
		sa = 0x7F800001 // signalling, payload 1
		sb = 0xFFA00002 // negative signalling
		qa = sa | 1<<22
		qb = sb | 1<<22
	)
	inst, err := NewInstance(i64m(wasm.I64Const(0), wasm.End()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	one := uint64(math.Float32bits(1.5))
	for _, op := range []wasm.Opcode{wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Mul, wasm.OpF32Div} {
		for _, r := range []struct{ a, b, want uint64 }{{sa, sb, qa}, {sb, sa, qb}, {one, sb, qb}, {sa, one, qa}} {
			stack := []uint64{r.a, r.b}
			n, err := inst.numeric(op, stack, len(stack))
			if err != nil {
				t.Fatal(err)
			}
			if got := stack[n-1]; got != r.want {
				t.Errorf("%v(%#x, %#x) = %#x, want %#x", op, r.a, r.b, got, r.want)
			}
		}
	}
}

func isNaN64(bits uint64) bool { f := math.Float64frombits(bits); return f != f }
