package ir

import (
	"testing"
	"unsafe"

	"cage/internal/arch"
	"cage/internal/wasm"
)

// The region index lives in the padding after Op: an instruction is
// still 48 bytes.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 48 {
		t.Errorf("Instr is %d bytes, want 48", n)
	}
}

// TestBuildChargesRegions: every pc is priced through the next
// transfer, whether taken or not, a fused instruction by its
// constituents, and Unrun leaves what follows a trapping part.
func TestBuildChargesRegions(t *testing.T) {
	add := OpNumericBase + Op(wasm.OpI64Add)
	p := &Program{Funcs: []Func{{Code: []Instr{
		{Op: OpLocalGet}, // 0
		{Op: OpFusedConstALU, B: uint64(wasm.OpI64Add)}, // 1: const; i64.add
		{Op: OpBrIf, B: 4}, // 2
		{Op: OpLoadB64Tag}, // 3
		{Op: OpConst},      // 4
		{Op: OpReturn},     // 5
	}}}}
	if err := BuildCharges(p); err != nil {
		t.Fatal(err)
	}
	events := func(ops ...Op) arch.Counter {
		var c arch.Counter
		for _, op := range ops {
			for _, ev := range op.Events() {
				c.Add(ev, 1)
			}
		}
		return c
	}
	code := p.Funcs[0].Code
	for pc, want := range []arch.Counter{
		events(OpLocalGet, OpConst, add, OpBrIf),
		events(OpConst, add, OpBrIf),
		events(OpBrIf),
		events(OpLoadB64Tag, OpConst, OpReturn),
		events(OpConst, OpReturn),
		events(OpReturn),
	} {
		var got arch.Counter
		for _, e := range p.Charges.Events(code[pc].Charge) {
			if e.N == 0 {
				t.Errorf("pc %d lists event %d with no count", pc, e.Ev)
			}
			got.Add(arch.Event(e.Ev), uint64(e.N))
		}
		if got != want {
			t.Errorf("pc %d (%v): charge %v, want %v", pc, code[pc].Op, got.EventCounts(), want.EventCounts())
		}
	}
	if n := p.Charges.Len(); n != len(code) {
		t.Errorf("%d regions for %d pcs", n, len(code))
	}
	if got, want := p.Unrun(&code[1], 0), events(add, OpBrIf); got != want {
		t.Errorf("Unrun(pc 1, part 0) = %v, want %v", got.EventCounts(), want.EventCounts())
	}
	if tagged := events(OpLoadB64Tag); tagged.Get(arch.EvTagCheckLoad) != 1 {
		t.Errorf("a tagged load charges %d tag checks, want 1", tagged.Get(arch.EvTagCheckLoad))
	}
}

// TestBuildChargesRefusesOverfullRegion: a region may count an event
// at most MaxChargeCount times, wherever it starts.
func TestBuildChargesRefusesOverfullRegion(t *testing.T) {
	for _, n := range []int{MaxChargeCount, MaxChargeCount + 1} {
		code := []Instr{{Op: OpBr, B: 1}}
		for range n {
			code = append(code, Instr{Op: OpLocalGet})
		}
		code = append(code, Instr{Op: OpReturn})
		err := BuildCharges(&Program{Funcs: []Func{{Code: code}}})
		if (err != nil) != (n > MaxChargeCount) {
			t.Errorf("%d local.gets in one region: BuildCharges error %v", n, err)
		}
	}
}
