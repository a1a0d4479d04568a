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
	events := func(ops ...Op) Charge {
		var c Charge
		for _, op := range ops {
			c.add(op)
		}
		return c
	}
	code := p.Funcs[0].Code
	for pc, want := range []Charge{
		events(OpLocalGet, OpConst, add, OpBrIf),
		events(OpConst, add, OpBrIf),
		events(OpBrIf),
		events(OpLoadB64Tag, OpConst, OpReturn),
		events(OpConst, OpReturn),
		events(OpReturn),
	} {
		if got := p.Charges[code[pc].Charge]; got != want {
			t.Errorf("pc %d (%v): charge %v, want %v", pc, code[pc].Op, got, want)
		}
	}
	if got, want := p.Unrun(&code[1], 0), events(add, OpBrIf); got != want {
		t.Errorf("Unrun(pc 1, part 0) = %v, want %v", got, want)
	}
	if got := p.Charges[code[3].Charge].Count(arch.EvTagCheckLoad); got != 1 {
		t.Errorf("pc 3 charges %d tag checks, want 1", got)
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
