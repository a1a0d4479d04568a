package fuse_test

// Structural tests for the superinstruction pass. Semantic equivalence
// (results, traps, event counts) is pinned by the differential suite in
// internal/exec; here we check the rewrite's static contracts: fused
// instructions expand back to their constituents, fences survive
// untouched, every branch target lands inside the rewritten stream, and
// the pass refuses to run twice.

import (
	"reflect"
	"testing"

	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// lowerKernel builds and lowers a polybench kernel under feats.
func lowerKernel(t *testing.T, name string, wasm64 bool, feats core.Features) *ir.Program {
	t.Helper()
	k, err := polybench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := polybench.Build(k, codegen.Options{
		Wasm64:         wasm64,
		StackSanitizer: feats.MemSafety,
		PtrAuth:        feats.PtrAuth,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.LowerModule(m, exec.Config{Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func countFused(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, in := range f.Code {
			if in.Op.IsFused() {
				n++
			}
		}
	}
	return n
}

// TestFuseRoundTrip: walking the fused and unfused streams in lockstep,
// every fused instruction's Constituents() must reproduce the original
// instructions it replaced — same opcodes, and same immediates for the
// non-branch constituents (branch constituents carry remapped PCs,
// checked separately by TestFuseBranchTargetsValid and the differential
// suite).
func TestFuseRoundTrip(t *testing.T) {
	p := lowerKernel(t, "gemm", true, core.Features{})
	q := fuse.Fuse(p, nil)
	if countFused(q) == 0 {
		t.Fatal("exhaustive fusion produced no fused instructions")
	}
	for fi := range q.Funcs {
		orig, fused := p.Funcs[fi].Code, q.Funcs[fi].Code
		i := 0
		for _, in := range fused {
			cons := in.Constituents()
			if cons == nil {
				// Unfused instruction: must match the original verbatim
				// except for remapped branch immediates.
				if in.Op != orig[i].Op {
					t.Fatalf("func %d pc %d: op %v, original %v", fi, i, in.Op, orig[i].Op)
				}
				i++
				continue
			}
			for _, c := range cons {
				if c.Op != orig[i].Op {
					t.Fatalf("func %d pc %d: constituent %v, original %v", fi, i, c.Op, orig[i].Op)
				}
				switch c.Op {
				case ir.OpLocalGet, ir.OpLocalSet, ir.OpConst:
					if c.A != orig[i].A {
						t.Fatalf("func %d pc %d: %v immediate %#x, original %#x",
							fi, i, c.Op, c.A, orig[i].A)
					}
				}
				i++
			}
		}
		if i != len(orig) {
			t.Fatalf("func %d: expansion covers %d of %d instructions", fi, i, len(orig))
		}
	}
}

// TestFusePreservesFences: under the hardened preset every speculation
// barrier must survive fusion in place — no pattern may absorb or cross
// an OpFence.
func TestFusePreservesFences(t *testing.T) {
	feats := core.CageAll()
	feats.SpectreHarden = true
	p := lowerKernel(t, "gemm", true, feats)
	q := fuse.Fuse(p, nil)
	if countFused(q) == 0 {
		t.Fatal("hardened program fused nothing")
	}
	count := func(p *ir.Program) (n int) {
		for _, f := range p.Funcs {
			for _, in := range f.Code {
				if in.Op == ir.OpFence {
					n++
				}
				for _, c := range in.Constituents() {
					if c.Op == ir.OpFence {
						t.Fatal("fused instruction contains a fence constituent")
					}
				}
			}
		}
		return
	}
	before, after := count(p), count(q)
	if before == 0 {
		t.Fatal("hardened lowering produced no fences")
	}
	if before != after {
		t.Fatalf("fence count changed: %d before fusion, %d after", before, after)
	}
}

// TestFuseBranchTargetsValid: after the PC remap, every branch —
// plain, table, and packed inside a fused instruction — must target a
// PC inside the rewritten stream.
func TestFuseBranchTargetsValid(t *testing.T) {
	for _, name := range []string{"gemm", "jacobi-1d", "durbin"} {
		p := fuse.Fuse(lowerKernel(t, name, true, core.Features{}), nil)
		for fi, f := range p.Funcs {
			check := func(pc, target int) {
				if target < 0 || target >= len(f.Code) {
					t.Fatalf("%s func %d pc %d: branch target %d outside [0,%d)",
						name, fi, pc, target, len(f.Code))
				}
			}
			for pc, in := range f.Code {
				switch in.Op {
				case ir.OpGoto, ir.OpBr, ir.OpBrIf, ir.OpBrIfZ:
					check(pc, int(in.B))
				case ir.OpBrTable:
					for _, bt := range in.Targets {
						check(pc, int(bt.PC))
					}
				case ir.OpFusedSetBr, ir.OpFusedCmpBrIf, ir.OpFusedCmpBrIfZ, ir.OpFusedCmpEqzBrIf:
					check(pc, ir.FusedBranchTarget(in.B))
				}
			}
		}
	}
}

// TestFuseIdempotent: a fused program is returned unchanged — PCs have
// already moved once and must not move again.
func TestFuseIdempotent(t *testing.T) {
	p := fuse.Fuse(lowerKernel(t, "gemm", true, core.Features{}), nil)
	if q := fuse.Fuse(p, nil); q != p {
		t.Fatal("refusing a fused program must return it unchanged")
	}
}

// idiomSample gives an idiom opcode the immediates of a plausible
// instance of its shape (the shape's encoding with the ALU fields
// zero): small locals, a scale of 8, a bounds-checked f64.load, and a
// branch back to pc 0, the instruction's own head.
func idiomSample(t *testing.T, id ir.Idiom) ir.Instr {
	t.Helper()
	in := ir.Instr{Op: id.Op}
	switch id.Shape {
	case ir.OpFusedConstALUALU:
		in.A = 8
	case ir.OpFusedConstALUALULoadALU:
		in.A = 8<<32 | 16
		in.B = ir.PackFusedMem(8, ir.OpLoadB64, 0, wasm.OpF64Load)
	case ir.OpFusedGetGetCmpEqzBr:
		in.A = 1<<32 | 2
	case ir.OpFusedALUSetIncBr:
		in.A = 3<<32 | 4<<16 | 1<<8
	case ir.OpFusedGet3ALUGetALU:
		in.A = 1<<48 | 2<<32 | 3<<16 | 4
	case ir.OpFusedIncBr:
		in.A = 1 << 8
		in.B = ir.PackFusedBranch(2, 0)
	case ir.OpFusedGetALUGetALU:
		in.A = 1<<32 | 2
	default:
		t.Fatalf("%v: no sample immediates for shape %v", id.Op, id.Shape)
	}
	return in
}

// fuseOne fuses a function made of seq and a terminator and returns the
// instruction seq became, requiring that it became exactly one.
func fuseOne(t *testing.T, seq []ir.Instr) ir.Instr {
	t.Helper()
	code := append(append([]ir.Instr{}, seq...), ir.Instr{Op: ir.OpRetEnd})
	q := fuse.Fuse(&ir.Program{Funcs: []ir.Func{{Code: code}}}, nil)
	if got := q.Funcs[0].Code; len(got) != 2 {
		t.Fatalf("%v fused to %d instructions, want 1 + ret_end: %v", seq, len(got), got)
	}
	return q.Funcs[0].Code[0]
}

// TestFuseEmitsIdioms: every row of the idiom table is emitted for its
// exact constituent sequence — opcode and immediates — and for no
// other: with any one ALU constituent swapped for an op no idiom names
// (f64.div in a latch's reduction slot, say), the sequence fuses to the
// generic shape, which carries the swapped op.
func TestFuseEmitsIdioms(t *testing.T) {
	// Stand-ins by stack effect; none appears in the idiom table.
	standIn := func(alu wasm.Opcode) wasm.Opcode {
		switch pop, _, _ := ir.NumericStackEffect(alu); {
		case pop == 1:
			return wasm.OpI64Popcnt
		case alu >= wasm.OpF64Add:
			return wasm.OpF64Div
		case alu == wasm.OpI64LtS:
			return wasm.OpI64GtU
		}
		return wasm.OpI64Xor
	}
	for _, id := range ir.Idioms() {
		for _, alu := range id.ALUs {
			for _, other := range ir.Idioms() {
				for _, o := range other.ALUs {
					if o == standIn(alu) {
						t.Fatalf("stand-in %v is an idiom constituent of %v", o, other.Op)
					}
				}
			}
		}
		want := idiomSample(t, id)
		seq := want.Constituents()
		if got := fuseOne(t, seq); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: its constituents fused to %v (A=%#x B=%#x), want A=%#x B=%#x",
				id.Op, got.Op, got.A, got.B, want.A, want.B)
		}
		k := 0 // index into id.ALUs of the constituent being swapped
		for i, c := range seq {
			if !c.Op.IsNumeric() || c.Op.Wasm() == wasm.OpI32Eqz {
				continue // the shapes' fixed i32.eqz is not one of their ALU fields
			}
			if c.Op.Wasm() != id.ALUs[k] {
				t.Fatalf("%v: ALU constituent %d is %v, table says %v", id.Op, k, c.Op, id.ALUs[k])
			}
			k++
			mutated := append([]ir.Instr{}, seq...)
			mutated[i].Op = ir.OpNumericBase + ir.Op(standIn(c.Op.Wasm()))
			got := fuseOne(t, mutated)
			if got.Op != id.Shape {
				t.Errorf("%v with %v for %v fused to %v, want the shape %v",
					id.Op, mutated[i].Op, c.Op, got.Op, id.Shape)
				continue
			}
			if cons := got.Constituents(); !reflect.DeepEqual(cons, mutated) {
				t.Errorf("%v with %v for %v: shape expands to %v, want %v",
					id.Op, mutated[i].Op, c.Op, cons, mutated)
			}
		}
		if k != len(id.ALUs) {
			t.Errorf("%v: %d ALU constituents, table lists %d", id.Op, k, len(id.ALUs))
		}
	}
}
