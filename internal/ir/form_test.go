package ir

import (
	"fmt"
	"reflect"
	"testing"

	"cage/internal/wasm"
)

// allForms returns every row, shapes then indexed forms.
func allForms() []*Form {
	var out []*Form
	for i := range shapes {
		out = append(out, &shapes[i])
	}
	for i := range indexed {
		out = append(out, &indexed[i])
	}
	return out
}

// formSample builds a constituent sequence f matches with every operand
// at its field's width limit — the widest local, constant, offset,
// repair and target that fit — except that slot over's operand is one
// past its limit (over < 0: none is).
func formSample(f *Form, over int) []Instr {
	seq := make([]Instr, len(f.slots))
	for k, s := range f.slots {
		v := uint64(1)<<s.f.width - 1
		if s.f.width == 64 {
			v = ^uint64(0)
		}
		if k == over {
			v++
		}
		switch s.class {
		case exact:
			seq[k] = Instr{Op: s.op, A: v}
		case sameAs:
			seq[k] = Instr{Op: s.op, A: seq[s.same].A}
		case anyALU:
			seq[k] = Instr{Op: OpNumericBase + Op(wasm.OpF64ReinterpretI64)} // the highest numeric
		case addSub:
			seq[k] = Instr{Op: OpNumericBase + Op(wasm.OpI64Sub)}
		case load:
			seq[k] = Instr{Op: OpLoadG32G, A: v, B: PackMem(8, wasm.OpI64Load)}
		case store:
			seq[k] = Instr{Op: OpStoreG32G, A: v, B: PackMem(8, wasm.OpI64Store)}
		case branch:
			seq[k] = Instr{Op: s.op, A: v, B: 0xFFFFFFFF}
		}
	}
	return seq
}

// tryForm matches f at code[0] with no branch target inside code.
func tryForm(f *Form, code []Instr) (Instr, int) {
	return Match([]*Form{f}, code, 0, len(code), make([]bool, len(code)+1))
}

// TestFormsRoundTrip: every fused opcode has one row; for every row, a
// sequence with each operand at its field's width limit encodes
// (Match) and decodes (Instr.Constituents) back to itself, and an
// operand one past a field's width — a zero-repair branch's repair of 1,
// a target of 2^32 — does not match the row.
func TestFormsRoundTrip(t *testing.T) {
	rows := map[Op]int{}
	for _, f := range allForms() {
		rows[f.op]++
		seq := formSample(f, -1)
		in, n := tryForm(f, seq)
		if n != len(seq) || in.Op != f.op {
			t.Errorf("%v does not match its own sample %v", f.op, seq)
			continue
		}
		if got := in.Constituents(); !reflect.DeepEqual(got, seq) {
			t.Errorf("%v: A=%#x B=%#x expands to\n %v, want\n %v", f.op, in.A, in.B, got, seq)
		}
		for k, s := range f.slots {
			if s.class == anyALU || s.class == addSub || s.class == sameAs || s.f.width == 64 {
				continue // an opcode or a repeated local: no operand of its own to overflow
			}
			if _, n := tryForm(f, formSample(f, k)); n != 0 {
				t.Errorf("%v matched with slot %d's operand one past its %d-bit field", f.op, k, s.f.width)
			}
		}
		if f.op.IsFusedBranch() {
			bad := formSample(f, -1)
			bad[len(bad)-1].B = 1 << 32
			if _, n := tryForm(f, bad); n != 0 {
				t.Errorf("%v matched a target one past 32 bits", f.op)
			}
		}
	}
	for op := OpFusedBase; op.IsFused(); op++ {
		if rows[op] != 1 {
			t.Errorf("%v has %d rows, want 1", op, rows[op])
		}
	}
}

// TestInstrStringShowsSlots: a fused instruction prints, in slot order,
// what its row's slots carry — each memory access's offset, width and
// wasm opcode, the k of an i64.add|i64.sub, each branch's target and a
// repair that has a field — read back from the constituents it encodes.
func TestInstrStringShowsSlots(t *testing.T) {
	for _, f := range allForms() {
		seq := formSample(f, -1)
		in, _ := tryForm(f, seq)
		want := f.op.String()
		for k, s := range f.slots {
			c := seq[k]
			switch s.class {
			case addSub:
				want += fmt.Sprintf(" k=%+d", -int64(int32(seq[k-2].A)))
			case load, store:
				want += fmt.Sprintf(" offset=%d size=%d (%s", c.A, MemSize(c.B), MemOp(c.B))
				switch f.op { // the rows whose any-ALU slot sits in the memory pack
				case OpFusedLoadALU, OpFusedALULoad, OpFusedALUStore, OpFusedConstALUALULoadALU:
					want += "; f64.reinterpret_i64" // formSample's ALU
				}
				want += ")"
			case branch:
				want += fmt.Sprintf(" ->%d", c.B)
				if s.f != none {
					want += fmt.Sprintf(" keep=%d arity=%d", BranchKeep(c.A), BranchArity(c.A))
				}
			}
		}
		if got := in.String(); got != want {
			t.Errorf("%v prints %q, want %q", f.op, got, want)
		}
	}
}

// TestFormPredicates: the rules a row states beyond its slots. The set
// of an increment must name the local its get read; fused.idx1 does not
// match where a load follows, even one whose offset no indexed load can
// hold; and an indexed load leaves a trailing op that heads a reduction
// latch to the latch.
func TestFormPredicates(t *testing.T) {
	for _, f := range allForms() {
		for k, s := range f.slots {
			if s.class != sameAs {
				continue
			}
			seq := formSample(f, -1)
			seq[s.same].A, seq[k].A = 1, 2
			if _, n := tryForm(f, seq); n != 0 {
				t.Errorf("%v matched a set of local 2 after a get of local 1", f.op)
			}
		}
		if f.bare {
			seq := append(formSample(f, -1), Instr{Op: OpLoadB64, A: 1 << 16, B: PackMem(8, wasm.OpF64Load)})
			if _, n := tryForm(f, seq); n != 0 {
				t.Errorf("%v matched with a load after it", f.op)
			}
		}
		if f.tail {
			latch := []Instr{{Op: OpLocalSet, A: 1}, {Op: OpLocalGet, A: 2}, {Op: OpConst, A: 1},
				{Op: OpNumericBase + Op(wasm.OpI64Add)}, {Op: OpLocalSet, A: 2}, {Op: OpBr}}
			if _, n := tryForm(f, append(formSample(f, -1), latch...)); n != 0 {
				t.Errorf("%v took the head of a reduction latch", f.op)
			}
		}
	}
}
