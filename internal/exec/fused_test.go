package exec

import (
	"math"
	"testing"

	"cage/internal/arch"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// TestFusedALUKindsMatchSlowPath pins the dense ALU key of the dispatch
// loop's shared fusedALU block: aluKind names each inlined kind exactly
// once, and an opcode the block runs inline produces the value and the
// event the shared numeric ALU (the block's kind-0 fallback, and what an
// unfused instruction outside the loop's fast path runs) produces for
// it, on boundary operands. The inline
// side runs through the dispatch loop itself — a hand-built
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
	prog.Funcs[0].Code = code // same frame: no locals, two operand slots, one result
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
				before := ctr.Snapshot()
				res, err := inst.Invoke("f")
				if err != nil {
					t.Fatalf("%v(%#x, %#x) inline: %v", op, a, b, err)
				}
				fast := ctr.DeltaSince(before)

				before = ctr.Snapshot()
				stack := []uint64{a, b}
				n, err := inst.numeric(op, stack, len(stack))
				if err != nil {
					t.Fatalf("%v(%#x, %#x) slow: %v", op, a, b, err)
				}
				slow := ctr.DeltaSince(before)

				if want := stack[n-1]; res[0] != want {
					t.Errorf("%v(%#x, %#x): inline %#x, numeric %#x", op, a, b, res[0], want)
				}
				slow.Add(arch.EvConst, 2) // the two constants the program pushed
				if fast != slow {
					t.Errorf("%v(%#x, %#x): inline events %v, numeric %v",
						op, a, b, fast.EventCounts(), slow.EventCounts())
				}
			}
		}
	}
}
