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

	"cage/internal/arch"
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
	return lower(t, k, wasm64, feats)
}

// lower builds and lowers k under feats.
func lower(t *testing.T, k polybench.Kernel, wasm64 bool, feats core.Features) *ir.Program {
	t.Helper()
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
// instructions it replaced — same opcodes and immediates for the
// non-branch constituents (branch constituents carry remapped PCs,
// checked separately by TestFuseBranchTargetsValid and the differential
// suite). The kernels between them fuse every indexed form and the
// i < n ± k head; jacobi-1d's stencil has the idx1±k forms, so the
// comparison covers their k (the const constituent) and i64.add /
// i64.sub (the ALU constituent).
func TestFuseRoundTrip(t *testing.T) {
	var kernels []polybench.Kernel
	for _, name := range []string{"gemm", "atax", "jacobi-1d"} {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, k)
	}
	kernels = append(kernels, polybench.TwoMMVariant(polybench.CallDynamic))
	seen := map[ir.Op]bool{}
	for _, k := range kernels {
		name := k.Name
		p := lower(t, k, true, core.Features{})
		q := fuse.Fuse(p, nil)
		if countFused(q) == 0 {
			t.Fatalf("%s: exhaustive fusion produced no fused instructions", name)
		}
		for fi := range q.Funcs {
			orig, fused := p.Funcs[fi].Code, q.Funcs[fi].Code
			i := 0
			for _, in := range fused {
				seen[in.Op] = true
				cons := in.Constituents()
				if cons == nil {
					// Unfused instruction: must match the original verbatim
					// except for remapped branch immediates.
					if in.Op != orig[i].Op {
						t.Fatalf("%s func %d pc %d: op %v, original %v", name, fi, i, in.Op, orig[i].Op)
					}
					i++
					continue
				}
				for _, c := range cons {
					o := orig[i]
					if c.Op != o.Op {
						t.Fatalf("%s func %d pc %d: constituent %v, original %v", name, fi, i, c.Op, o.Op)
					}
					switch c.Op {
					case ir.OpBr, ir.OpBrIf, ir.OpBrIfZ:
					default:
						if c.A != o.A || c.B != o.B {
							t.Fatalf("%s func %d pc %d: %v immediates %#x %#x, original %#x %#x",
								name, fi, i, c.Op, c.A, c.B, o.A, o.B)
						}
					}
					i++
				}
			}
			if i != len(orig) {
				t.Fatalf("%s func %d: expansion covers %d of %d instructions", name, fi, i, len(orig))
			}
		}
	}
	for op := ir.OpFusedIdx1Load; op.IsIndexed() || op == ir.OpFusedGetGetKI64LtSEqzBr; op++ {
		if !seen[op] {
			t.Errorf("no kernel fused to %v", op)
		}
	}
}

// TestFuseReductionKeepsLatch: a trailing f64.add joins an indexed load
// only when it does not head a reduction latch. acc += a[i] stays
// get acc; fused.idx1+load; fused.f64.add+set+inc.i64.add+br — three
// dispatches — where taking the f64.add into the load would leave the
// latch's set, induction step and back edge three more. Without the
// back edge the same f64.add joins.
func TestFuseReductionKeepsLatch(t *testing.T) {
	const acc, a, i = 0, 1, 2
	body := []ir.Instr{
		{Op: ir.OpLocalGet, A: acc},
		{Op: ir.OpLocalGet, A: a},
		{Op: ir.OpLocalGet, A: i},
		{Op: ir.OpConst, A: 8},
		{Op: ir.OpNumericBase + ir.Op(wasm.OpI64Mul)},
		{Op: ir.OpNumericBase + ir.Op(wasm.OpI64Add)},
		{Op: ir.OpLoadB64, B: ir.PackMem(8, wasm.OpF64Load)},
		{Op: ir.OpNumericBase + ir.Op(wasm.OpF64Add)},
		{Op: ir.OpLocalSet, A: acc},
	}
	latch := []ir.Instr{
		{Op: ir.OpLocalGet, A: i},
		{Op: ir.OpConst, A: 1},
		{Op: ir.OpNumericBase + ir.Op(wasm.OpI64Add)},
		{Op: ir.OpLocalSet, A: i},
		{Op: ir.OpBr, B: 0},
	}
	ops := func(code []ir.Instr) []ir.Op {
		code = append(append([]ir.Instr{}, code...), ir.Instr{Op: ir.OpRetEnd})
		var out []ir.Op
		for _, in := range fuse.Fuse(&ir.Program{Funcs: []ir.Func{{Code: code}}}, nil).Funcs[0].Code {
			out = append(out, in.Op)
		}
		return out
	}
	want := []ir.Op{ir.OpLocalGet, ir.OpFusedIdx1Load, ir.OpFusedF64AddSetI64IncBr, ir.OpRetEnd}
	if got := ops(append(append([]ir.Instr{}, body...), latch...)); !reflect.DeepEqual(got, want) {
		t.Errorf("acc += a[i] loop fused to %v, want %v", got, want)
	}
	want = []ir.Op{ir.OpLocalGet, ir.OpFusedIdx1LoadF64Add, ir.OpLocalSet, ir.OpRetEnd}
	if got := ops(body); !reflect.DeepEqual(got, want) {
		t.Errorf("acc += a[i] without a back edge fused to %v, want %v", got, want)
	}
}

// BenchmarkFuse times the fuse pass alone over the 25 polybench kernels
// lowered under full Cage — the pass is on every cold start's path.
func BenchmarkFuse(b *testing.B) {
	feats := core.CageAll()
	var progs []*ir.Program
	for _, k := range polybench.Kernels() {
		m, err := polybench.Build(k, codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true})
		if err != nil {
			b.Fatal(err)
		}
		p, err := exec.LowerModule(m, exec.Config{Features: feats})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			fuse.Fuse(p, nil)
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
				}
				if in.Op.IsFusedBranch() {
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

// straightSample returns a constituent sequence of the straight-line
// opcode op: its expansion with locals, constants and offsets drawn
// from one nonzero A, every memory access a bounds-checked f64.load,
// every i64.add|i64.sub slot an i64.add and every branch back to pc 0,
// the instruction's own head.
func straightSample(op ir.Op) []ir.Instr {
	seq := ir.Instr{Op: op, A: 0x0004_0003_0002_0001}.Constituents()
	for k := range seq {
		switch c := &seq[k]; c.Op {
		case ir.OpInvalid: // a memory access whose pack B does not hold
			c.Op, c.B = ir.OpLoadB64, ir.PackMem(8, wasm.OpF64Load)
		case ir.OpNumericBase: // an i64.add|i64.sub whose byte B does not hold
			c.Op = ir.OpNumericBase + ir.Op(wasm.OpI64Add)
		}
	}
	return seq
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
	in := q.Funcs[0].Code[0]
	in.Charge = 0 // where its region's events sit, not what it is
	return in
}

// TestFuseEmitsIdioms: every row whose ALU slots are exact — the
// idioms, the indexed forms and the i < n ± k head (ir.IsStraightLine)
// — is emitted for its constituent sequence, and its instruction
// expands back to that sequence. Where the row is an idiom, any one ALU
// constituent swapped for an op no straight-line row names (f64.div in
// a latch's reduction slot, say) fuses to the generic shape, which
// carries the swapped op; the indexed forms and the head have no shape
// to fall back to.
func TestFuseEmitsIdioms(t *testing.T) {
	// Stand-ins by stack effect; none appears in a straight-line row.
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
	var straight []ir.Op
	named := map[ir.Op]bool{}
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		if op.IsStraightLine() {
			straight = append(straight, op)
			for _, c := range straightSample(op) {
				named[c.Op] = true
			}
		}
	}
	if len(straight) != 22 {
		t.Errorf("%d straight-line rows, want the 12 idioms, 9 indexed forms and the i < n ± k head", len(straight))
	}
	for _, op := range straight {
		seq := straightSample(op)
		got := fuseOne(t, seq)
		if got.Op != op {
			t.Errorf("%v: its constituents fused to %v", op, got.Op)
			continue
		}
		if cons := got.Constituents(); !reflect.DeepEqual(cons, seq) {
			t.Errorf("%v: fused to A=%#x B=%#x, which expands to %v, want %v", op, got.A, got.B, cons, seq)
		}
		if op.IsIndexed() || op == ir.OpFusedGetGetKI64LtSEqzBr {
			continue
		}
		for i, c := range seq {
			if !c.Op.IsNumeric() || c.Op.Wasm() == wasm.OpI32Eqz {
				continue // the shapes' fixed i32.eqz is not one of their ALU fields
			}
			mutated := append([]ir.Instr{}, seq...)
			mutated[i].Op = ir.OpNumericBase + ir.Op(standIn(c.Op.Wasm()))
			if named[mutated[i].Op] {
				t.Fatalf("stand-in %v is a straight-line row's constituent", mutated[i].Op)
			}
			got := fuseOne(t, mutated)
			if got.Op.IsStraightLine() {
				t.Errorf("%v with %v for %v fused to %v, want its generic shape", op, mutated[i].Op, c.Op, got.Op)
				continue
			}
			if cons := got.Constituents(); !reflect.DeepEqual(cons, mutated) {
				t.Errorf("%v with %v for %v: %v expands to %v, want %v",
					op, mutated[i].Op, c.Op, got.Op, cons, mutated)
			}
		}
	}
}

// TestFuseKeepsCharges: a fused program shares the lowered program's
// event table, each instruction keeping its head's index, which is
// right only because the region from a fused instruction is the same
// instructions as the region from its head in the lowered program. A
// rebuild of the fused program's table must agree at every pc.
func TestFuseKeepsCharges(t *testing.T) {
	for _, k := range polybench.Kernels() {
		for _, wasm64 := range []bool{true, false} {
			feats := core.Features{}
			if wasm64 {
				feats = core.CageAll()
			}
			fused := fuse.Fuse(lower(t, k, wasm64, feats), nil)
			rebuilt := &ir.Program{Funcs: make([]ir.Func, len(fused.Funcs))}
			for fi, f := range fused.Funcs {
				rebuilt.Funcs[fi] = f
				rebuilt.Funcs[fi].Code = append([]ir.Instr(nil), f.Code...)
			}
			if err := ir.BuildCharges(rebuilt); err != nil {
				t.Fatal(err)
			}
			for fi, f := range rebuilt.Funcs {
				for pc, in := range f.Code {
					got := regionEvents(&fused.Charges, fused.Funcs[fi].Code[pc].Charge)
					if want := regionEvents(&rebuilt.Charges, in.Charge); got != want {
						t.Fatalf("%s wasm64=%v func %d pc %d (%v): fused charges %v, a rebuild %v",
							k.Name, wasm64, fi, pc, in, got.EventCounts(), want.EventCounts())
					}
				}
			}
		}
	}
}

// regionEvents returns region r of c as counts.
func regionEvents(c *ir.Charges, r uint32) arch.Counter {
	var ctr arch.Counter
	for _, e := range c.Events(r) {
		ctr.Add(arch.Event(e.Ev), uint64(e.N))
	}
	return ctr
}
