package exec

import (
	"math"
	"testing"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// TestInlineALUMatchesNumeric pins the dispatch loop's one inline ALU
// (the fusedALU block) to the shared numeric ALU and the ir event
// table. Every opcode ir.NumericStackEffect accepts runs through both
// ways into the block — an unfused instruction (`const a; [const b;]
// op`) and a fused one (`[const a;] fused.const+alu op`) — on boundary
// operands, the trapping ones included (division by zero, the
// overflowing division and truncations). Each must produce numeric's
// result or numeric's trap code, and the constants' events plus the
// one event the table prices the op at, so a case that computes the
// wrong op, or an op the block misroutes, fails here.
func TestInlineALUMatchesNumeric(t *testing.T) {
	m := i64m(wasm.I64Const(0), wasm.I64Const(0), wasm.Op(wasm.OpI64Add), wasm.End())
	prog, err := LowerModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ctr arch.Counter
	inst, err := NewInstance(m, Config{Program: prog, Counter: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	f32 := func(f float32) uint64 { return uint64(math.Float32bits(f)) }
	operands := []uint64{
		0, 1, 2, 31, 32, 63, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 1 << 32,
		math.MaxInt64, 1 << 63, math.MaxUint64,
		math.Float64bits(1.5), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.MaxFloat64),
		math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()), math.Float64bits(-1e19),
		f32(1.5), f32(-2.5e9), f32(float32(math.Inf(1))), f32(float32(math.NaN())),
	}
	code := make([]ir.Instr, 0, 4)
	ops, traps := 0, 0
	for i := 0; i < 256; i++ {
		op := wasm.Opcode(i)
		pop, _, ok := ir.NumericStackEffect(op)
		if !ok {
			continue
		}
		ops++
		events := (ir.OpNumericBase + ir.Op(op)).Events()
		if len(events) != 1 {
			t.Fatalf("%v: the table prices %d events, want 1", op, len(events))
		}
		var want arch.Counter
		want.Add(arch.EvConst, uint64(pop))
		want.Add(events[0], 1)
		seconds := operands
		if pop == 1 {
			seconds = operands[:1] // b is unused
		}
		for _, a := range operands {
			for _, b := range seconds {
				in := []uint64{a, b}[:pop]
				stack := append([]uint64(nil), in...)
				n, slowErr := inst.numeric(op, stack, pop)
				for _, path := range []string{"unfused", "fused"} {
					code = code[:0]
					if path == "unfused" {
						code = append(code, ir.Instr{Op: ir.OpConst, A: a})
						if pop == 2 {
							code = append(code, ir.Instr{Op: ir.OpConst, A: b})
						}
						code = append(code, ir.Instr{Op: ir.OpNumericBase + ir.Op(op)})
					} else {
						if pop == 2 {
							code = append(code, ir.Instr{Op: ir.OpConst, A: a})
						}
						code = append(code, ir.Instr{Op: ir.OpFusedConstALU, A: in[pop-1], B: uint64(op)})
					}
					setCode(inst, prog, append(code, ir.Instr{Op: ir.OpRetEnd, A: 1}))
					before := ctr.Snapshot()
					res, err := inst.Invoke("f")
					got := ctr.DeltaSince(before)
					switch {
					case slowErr != nil:
						traps++
						tr, ok := err.(*Trap)
						if !ok || tr.Code != slowErr.(*Trap).Code {
							t.Errorf("%v(%#x, %#x) %s: %v, numeric traps %v", op, a, b, path, err, slowErr)
						}
					case err != nil:
						t.Errorf("%v(%#x, %#x) %s: %v, numeric %#x", op, a, b, path, err, stack[n-1])
					case res[0] != stack[n-1]:
						t.Errorf("%v(%#x, %#x) %s: %#x, numeric %#x", op, a, b, path, res[0], stack[n-1])
					}
					if got != want {
						t.Errorf("%v(%#x, %#x) %s: events %v, the table's %v",
							op, a, b, path, got.EventCounts(), want.EventCounts())
					}
				}
			}
		}
	}
	if ops < 120 || traps == 0 {
		t.Fatalf("%d opcodes, %d traps: want every wasm numeric and its traps", ops, traps)
	}
	t.Logf("%d opcodes, %d trapping runs", ops, traps)
}

// TestNaNRule pins the rule every binary float op follows (f64NaN): a
// NaN result is the first operand that is a NaN, quieted, and only when
// neither operand is one the NaN the hardware made. It holds in numeric
// and at the dispatch loop's inline f64 sites — the one inline ALU (the
// fusedALU block, entered by an unfused and by a fused instruction) and
// the load block's trailing op — whatever operand order the compiler
// gave each site; the idiom sweep ties every other inline site to
// these.
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
