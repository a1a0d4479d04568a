// Package fuse is the superinstruction pass: a post-lowering rewrite
// over ir.Program that collapses every adjacent sequence matching one
// of its hand-written shapes — load+op, op+store, cmp+br, const+op,
// local traffic, seven-constituent loop latches, eight-constituent
// loop heads — into single fused opcodes (ir.OpFusedBase block). There
// is one mode: a sequence that is eligible is fused, in the runtime
// exactly as in the fuzzer and the differential suites.
//
// The largest are the indexed loads: an address built entirely from
// locals, b + i·c (idx1), b + (i·n + j)·c (idx2), b + i·n·c (idx3) or a
// stencil's b + (i ± k)·c (idx1±k, k an i32 constant extended to i64),
// then the load, then an f64.mul or f64.add where one follows and the
// form has an opcode with it (idx1 either, idx2 the f64.mul, idx1±k the
// f64.add; idx3 only fuses with its f64.mul) — six to eleven
// constituents, the whole operand side of a polybench inner product, in
// one dispatch. The idx1 address with no load behind it, the store side
// of B[i] = …, is fused.idx1. The matcher is greedy, left to right,
// longest first, with two exceptions:
//
//   - Shapes yield to indexed forms. A pre-pass marks where each one
//     starts, and no shape may reach past the next mark, so a local.get
//     run that would otherwise swallow an indexed load's base (gemm's
//     get+get+get+get, atax's get s; get A; get i; get n) stops short of
//     it. That rule took the hot loops of gemm, atax and the ptr-auth
//     2mm from 7–9 dispatches per iteration to 5.
//   - A trailing op joins an indexed load only if it does not head a
//     reduction latch (op; local.set; get; const; alu; local.set; br):
//     acc += a[i] stays fused.idx1+load and one latch, where taking the
//     f64.add would leave the latch's rest three dispatches.
//
// With the idx1±k loads, fused.idx1 and the head of i < n ± k
// (fused.get+get+k+i64.lt_s+eqz+br_if), jacobi-1d's 3-point stencil
// runs in 8 dispatches per iteration instead of 17.
//
// What a fused opcode saves is decided here, not in the executor. A
// shape opcode (fused.const+alu+alu) carries its ALU ops as immediates:
// it saves the dispatch loop's head — the pc bump, the instruction
// fetch, one table jump — per constituent merged, but the executor
// still decides "which ALU op is this" with an indirect jump per ALU
// constituent, at every dispatch, so a fused gemm iteration made 26
// table jumps for 38 constituents. Where a matched shape's ALU tuple is
// in the idiom table (ir.Specialize, ir/idiom.go) the pass emits the
// idiom opcode that names those ops instead (fused.const+i64.mul+
// i64.add), and that decision is never taken again: the executor runs
// the idiom as straight-line code over Go locals. Every other tuple
// keeps its shape.
//
// The pass is semantics- and event-preserving by construction: every
// fused opcode's executor handler runs the exact constituent sequence
// (same arithmetic, same address-translation function, same trap points
// and ordering), and its events are not the handler's at all: the
// fused program keeps the lowered program's event table
// (ir.BuildCharges), each fused instruction indexing its head's region,
// which is the same instructions — so a fused program is bit-identical
// to its unfused twin in results, traps, and the architectural event
// stream. The differential oracle pins this across
// every preset, and exec's TestIdiomsMatchConstituents pins each idiom
// to its own Constituents(). Safety rules:
//
//   - No pattern contains OpFence, so the hardened preset's
//     speculation barriers are never fused across; fence adjacency is
//     untouched by construction.
//   - A candidate is rejected if any non-head constituent is a branch
//     target: control flow can enter a superinstruction only at its
//     head, exactly like the plain instruction stream.
//   - Branch targets (absolute PCs) are remapped to the rewritten
//     stream, including BrTable target vectors (deep-copied — lowering
//     may share them) and the targets packed inside fused branches.
//
// Fuse refuses to run twice (Program.Fused) because PCs change.
package fuse

import (
	"cage/internal/ir"
	"cage/internal/wasm"
)

// Fuse rewrites p with a superinstruction for every eligible sequence.
// The input program is not modified; the result shares no mutable state
// with it. The second parameter is ignored, and untyped so that nothing
// here names internal/profile: a benchmark-only leftover of the call
// benchmark/layers.go spells, fuse.Fuse(p, profile.Default()) (ROADMAP,
// "Unblock the parked deletions"). Everything else passes nil.
func Fuse(p *ir.Program, _ any) *ir.Program {
	if p == nil || p.Fused {
		return p
	}
	// The region from a fused instruction is the region from its head
	// in p — the same instructions through the same transfer — so out
	// shares p's event table (ir.BuildCharges) and each instruction
	// keeps its head's index into it, which is also the index of the
	// executor's visit count for it; TestFuseKeepsCharges holds it to a
	// rebuild.
	out := &ir.Program{Cfg: p.Cfg, Funcs: make([]ir.Func, len(p.Funcs)), Fused: true, Charges: p.Charges}
	for i := range p.Funcs {
		out.Funcs[i] = fuseFunc(&p.Funcs[i])
	}
	return out
}

// aluOf returns the wasm opcode of a fusable pure-value instruction:
// a pass-through numeric with a known stack effect (anything the
// executor's ALU implements).
func aluOf(in ir.Instr) (wasm.Opcode, bool) {
	if !in.Op.IsNumeric() {
		return 0, false
	}
	w := in.Op.Wasm()
	if w > 0xFF {
		return 0, false
	}
	_, _, ok := ir.NumericStackEffect(w)
	return w, ok
}

// condALUOf is aluOf restricted to ops that leave exactly one value —
// the shape a fused compare-and-branch consumes.
func condALUOf(in ir.Instr) (wasm.Opcode, bool) {
	w, ok := aluOf(in)
	if !ok {
		return 0, false
	}
	_, push, _ := ir.NumericStackEffect(w)
	return w, push == 1
}

// memParts deconstructs a lowered load/store into the 8-bit fields
// PackFusedMem needs. Lowered memory ops always fit: sizes are ≤ 8,
// opcode variants sit in the named block, and wasm memory opcodes are
// single bytes.
func memParts(in ir.Instr) (size uint64, variant ir.Op, memOp wasm.Opcode, ok bool) {
	size = ir.MemSize(in.B)
	variant = in.Op
	memOp = ir.MemOp(in.B)
	ok = size <= 0xFF && uint16(variant) <= 0xFF && memOp <= 0xFF
	return
}

// branchTargets marks every absolute PC that any branch in code can
// jump to. PCs are dense, so the set is a slice indexed by PC, one
// entry longer than code for the one-past-end target.
func branchTargets(code []ir.Instr) []bool {
	t := make([]bool, len(code)+1)
	for i := range code {
		switch in := &code[i]; in.Op {
		case ir.OpGoto, ir.OpBr, ir.OpBrIf, ir.OpBrIfZ:
			t[in.B] = true
		case ir.OpBrTable:
			for _, bt := range in.Targets {
				t[bt.PC] = true
			}
		}
	}
	return t
}

// match tries every fusion pattern at code[i], longest first, and
// returns the fused instruction plus the number of constituents
// consumed (0 = no match). Fused branch targets still carry OLD PCs;
// the caller remaps them after the stream is rebuilt.
//
// A shape never reaches past end: the caller passes the head of the
// next indexed load there, so that load is not split.
func match(code []ir.Instr, i, end int, targets []bool) (ir.Instr, int) {
	a := code[i]
	var b, c ir.Instr
	if i+1 < end {
		b = code[i+1]
	}
	if i+2 < end {
		c = code[i+2]
	}
	pairOK := i+1 < end && !targets[i+1]
	tripleOK := i+2 < end && pairOK && !targets[i+2]
	quadOK := tripleOK && i+3 < end && !targets[i+3]
	quintOK := quadOK && i+4 < end && !targets[i+4]
	sextOK := quintOK && i+5 < end && !targets[i+5]
	septOK := sextOK && i+6 < end && !targets[i+6]
	octOK := septOK && i+7 < end && !targets[i+7]

	if octOK && a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet && c.Op == ir.OpConst {
		// get x; get y; const k; i64.extend_i32_s; i64.add|sub; i64.lt_s;
		// i32.eqz; br_if — the head of a loop bounded by n ± k (a
		// stencil's i < n - 1), zero repair only, like the quintuple head.
		f, h := &code[i+4], &code[i+7]
		if a.A <= 0xFFFF && b.A <= 0xFFFF && c.A <= 0xFFFFFFFF && isALU(code[i+3].Op, wasm.OpI64ExtendI32S) &&
			(isALU(f.Op, wasm.OpI64Add) || isALU(f.Op, wasm.OpI64Sub)) &&
			isALU(code[i+5].Op, wasm.OpI64LtS) && isALU(code[i+6].Op, wasm.OpI32Eqz) &&
			h.Op == ir.OpBrIf && h.A == 0 {
			return ir.Instr{Op: ir.OpFusedGetGetKI64LtSEqzBr, A: a.A<<48 | b.A<<32 | c.A,
				B: ir.PackFusedBranch(uint64(f.Op.Wasm()), h.B)}, 8
		}
	}
	// The cheap test keeps the call off the common path: the pass runs
	// on every cold start.
	if septOK && b.Op == ir.OpLocalSet {
		if in, n := latch(code, i, end, targets); n > 0 {
			return in, n
		}
	}
	if sextOK {
		// get w; get x; get y; alu1; get z; alu2 — the full
		// multiply-accumulate operand chain of a polybench inner loop.
		d, e, f := code[i+3], code[i+4], code[i+5]
		if a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet && c.Op == ir.OpLocalGet &&
			e.Op == ir.OpLocalGet &&
			a.A <= 0xFFFF && b.A <= 0xFFFF && c.A <= 0xFFFF && e.A <= 0xFFFF {
			if alu1, ok := aluOf(d); ok {
				if alu2, ok2 := aluOf(f); ok2 {
					return ir.Instr{Op: ir.OpFusedGet3ALUGetALU,
						A: a.A<<48 | b.A<<32 | c.A<<16 | e.A,
						B: uint64(alu2)<<8 | uint64(alu1)}, 6
				}
			}
		}
	}
	if quintOK {
		// The two loop-shaped quintuples: the head compare-and-exit and
		// the latch increment-and-back-edge that bracket every counted
		// loop the compiler emits. Both require a zero branch-repair
		// pack — the invariant shape of structured loop branches — so
		// the executor can retire the branch without repair plumbing.
		d, e := code[i+3], code[i+4]
		switch {
		case a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet &&
			a.A <= 0xFFFFFFFF && b.A <= 0xFFFFFFFF &&
			d.Op == ir.OpNumericBase+ir.Op(wasm.OpI32Eqz) &&
			e.Op == ir.OpBrIf && e.A == 0:
			if alu, ok := condALUOf(c); ok {
				return ir.Instr{Op: ir.OpFusedGetGetCmpEqzBr, A: a.A<<32 | b.A,
					B: ir.PackFusedBranch(uint64(alu), e.B)}, 5
			}
		case a.Op == ir.OpLocalGet && b.Op == ir.OpConst &&
			d.Op == ir.OpLocalSet && d.A == a.A &&
			e.Op == ir.OpBr && e.A == 0 &&
			a.A <= 0xFFFFFFFF && b.A <= 1<<56-1:
			if alu, ok := aluOf(c); ok {
				return ir.Instr{Op: ir.OpFusedIncBr, A: b.A<<8 | uint64(alu),
					B: ir.PackFusedBranch(a.A, e.B)}, 5
			}
		case a.Op == ir.OpConst && a.A <= 0xFFFFFFFF &&
			d.Op.IsLoad() && d.A <= 0xFFFFFFFF:
			// const c; alu1; alu2; load; alu3 — scaled-index address
			// arithmetic feeding a load whose value joins an ALU chain.
			alu1, ok1 := aluOf(b)
			alu2, ok2 := aluOf(c)
			alu3, ok3 := aluOf(e)
			if ok1 && ok2 && ok3 {
				if size, variant, memOp, fits := memParts(d); fits {
					return ir.Instr{Op: ir.OpFusedConstALUALULoadALU,
						A: a.A<<32 | d.A,
						B: uint64(alu2)<<40 | uint64(alu1)<<32 |
							ir.PackFusedMem(size, variant, alu3, memOp)}, 5
				}
			}
		}
	}
	if quadOK {
		d := code[i+3]
		// get w; get x; get y; get z — the operand marshalling runs
		// polybench kernels put in front of multiply-accumulate chains.
		if a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet &&
			c.Op == ir.OpLocalGet && d.Op == ir.OpLocalGet &&
			a.A <= 0xFFFF && b.A <= 0xFFFF && c.A <= 0xFFFF && d.A <= 0xFFFF {
			return ir.Instr{Op: ir.OpFusedGet4,
				A: a.A<<48 | b.A<<32 | c.A<<16 | d.A}, 4
		}
		// get x; alu1; get y; alu2 — the dependent-chain shape address
		// arithmetic leaves behind once its const+alu prefixes fuse.
		if a.Op == ir.OpLocalGet && c.Op == ir.OpLocalGet &&
			a.A <= 0xFFFFFFFF && c.A <= 0xFFFFFFFF {
			if alu1, ok := aluOf(b); ok {
				if alu2, ok2 := aluOf(d); ok2 {
					return ir.Instr{Op: ir.OpFusedGetALUGetALU, A: a.A<<32 | c.A,
						B: uint64(alu2)<<8 | uint64(alu1)}, 4
				}
			}
		}
	}
	if tripleOK {
		switch {
		case a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet:
			if alu, ok := aluOf(c); ok && a.A <= 0xFFFFFFFF && b.A <= 0xFFFFFFFF {
				return ir.Instr{Op: ir.OpFusedGetGetALU, A: a.A<<32 | b.A, B: uint64(alu)}, 3
			}
		case a.Op == ir.OpLocalGet && b.Op == ir.OpConst:
			if alu, ok := aluOf(c); ok && a.A <= 0xFFFFFFFF {
				return ir.Instr{Op: ir.OpFusedGetConstALU, A: b.A,
					B: ir.PackFusedBranch(a.A, uint64(alu))}, 3
			}
		case b.Op == ir.OpNumericBase+ir.Op(wasm.OpI32Eqz) && c.Op == ir.OpBrIf:
			if alu, ok := condALUOf(a); ok {
				return ir.Instr{Op: ir.OpFusedCmpEqzBrIf, A: c.A,
					B: ir.PackFusedBranch(uint64(alu), c.B)}, 3
			}
		case a.Op == ir.OpConst:
			if alu1, ok := aluOf(b); ok {
				if alu2, ok2 := aluOf(c); ok2 {
					return ir.Instr{Op: ir.OpFusedConstALUALU, A: a.A,
						B: uint64(alu2)<<8 | uint64(alu1)}, 3
				}
			}
		}
	}
	if !pairOK {
		return ir.Instr{}, 0
	}
	switch {
	case a.Op == ir.OpLocalGet && b.Op == ir.OpLocalGet:
		return ir.Instr{Op: ir.OpFusedGetGet, A: a.A, B: b.A}, 2
	case a.Op == ir.OpLocalGet && b.Op == ir.OpConst:
		return ir.Instr{Op: ir.OpFusedGetConst, A: a.A, B: b.A}, 2
	case a.Op == ir.OpConst:
		if alu, ok := aluOf(b); ok {
			return ir.Instr{Op: ir.OpFusedConstALU, A: a.A, B: uint64(alu)}, 2
		}
	case a.Op == ir.OpLocalGet:
		if alu, ok := aluOf(b); ok {
			return ir.Instr{Op: ir.OpFusedGetALU, A: a.A, B: uint64(alu)}, 2
		}
	case a.Op == ir.OpLocalSet && b.Op == ir.OpLocalGet:
		return ir.Instr{Op: ir.OpFusedSetGet, A: a.A, B: b.A}, 2
	case a.Op == ir.OpLocalSet && b.Op == ir.OpBr:
		if a.A <= 0xFFFFFFFF {
			return ir.Instr{Op: ir.OpFusedSetBr, A: b.A,
				B: ir.PackFusedBranch(a.A, b.B)}, 2
		}
	case a.Op.IsLoad():
		if alu, ok := aluOf(b); ok {
			if size, variant, memOp, fits := memParts(a); fits {
				return ir.Instr{Op: ir.OpFusedLoadALU, A: a.A,
					B: ir.PackFusedMem(size, variant, alu, memOp)}, 2
			}
		}
	}
	// Patterns headed by a pure-value op.
	if alu, ok := aluOf(a); ok {
		switch {
		case b.Op == ir.OpLocalSet:
			return ir.Instr{Op: ir.OpFusedALUSet, A: b.A, B: uint64(alu)}, 2
		case b.Op == ir.OpBrIf:
			if _, cond := condALUOf(a); cond {
				return ir.Instr{Op: ir.OpFusedCmpBrIf, A: b.A,
					B: ir.PackFusedBranch(uint64(alu), b.B)}, 2
			}
		case b.Op == ir.OpBrIfZ:
			if _, cond := condALUOf(a); cond {
				return ir.Instr{Op: ir.OpFusedCmpBrIfZ, A: b.A,
					B: ir.PackFusedBranch(uint64(alu), b.B)}, 2
			}
		case b.Op.IsLoad():
			if size, variant, memOp, fits := memParts(b); fits {
				return ir.Instr{Op: ir.OpFusedALULoad, A: b.A,
					B: ir.PackFusedMem(size, variant, alu, memOp)}, 2
			}
		case b.Op.IsStore():
			if size, variant, memOp, fits := memParts(b); fits {
				return ir.Instr{Op: ir.OpFusedALUStore, A: b.A,
					B: ir.PackFusedMem(size, variant, alu, memOp)}, 2
			}
		}
	}
	return ir.Instr{}, 0
}

// latch matches alu0; set x; get y; const c; alu1; set y; br at code[i]
// — the accumulate-and-advance tail of a counted loop: retire the
// reduction into x, bump the induction variable y, and take the back
// edge. Like the quintuple latches it only matches a zero-repair branch,
// so the executor truncates the stack. It returns the fused instruction
// and 7, or 0 when code[i:] is no latch that ends before end and is
// entered only at its head.
func latch(code []ir.Instr, i, end int, targets []bool) (ir.Instr, int) {
	if i+7 > end || code[i+1].Op != ir.OpLocalSet {
		return ir.Instr{}, 0
	}
	b, c, d, e, f, g := &code[i+1], &code[i+2], &code[i+3], &code[i+4], &code[i+5], &code[i+6]
	if c.Op != ir.OpLocalGet ||
		d.Op != ir.OpConst || f.Op != ir.OpLocalSet || f.A != c.A ||
		g.Op != ir.OpBr || g.A != 0 ||
		b.A > 0xFFFF || c.A > 0xFFFF || d.A > 0xFF {
		return ir.Instr{}, 0
	}
	for k := i + 1; k < i+7; k++ {
		if targets[k] {
			return ir.Instr{}, 0
		}
	}
	alu0, ok0 := aluOf(code[i])
	alu1, ok1 := aluOf(*e)
	if !ok0 || !ok1 {
		return ir.Instr{}, 0
	}
	return ir.Instr{Op: ir.OpFusedALUSetIncBr,
		A: uint64(alu0)<<48 | b.A<<32 | c.A<<16 | d.A<<8 | uint64(alu1),
		B: ir.PackFusedBranch(0, g.B)}, 7
}

// isALU reports whether op is the pass-through numeric w.
func isALU(op ir.Op, w wasm.Opcode) bool { return op == ir.OpNumericBase+ir.Op(w) }

// indexedLoad matches an indexed form at code[i]: one of the four index
// forms (b + i·c, b + (i·n + j)·c, b + i·n·c, b + (i ± k)·c; see
// ir.OpFusedIdx1Load), the scale, the load, and a trailing f64.mul or
// f64.add where the form has an opcode with it (idx3 has only the
// f64.mul one). The idx1 address with no load behind it is
// ir.OpFusedIdx1. It returns the fused instruction and the number of
// constituents consumed (0 = no match).
func indexedLoad(code []ir.Instr, i int, targets []bool) (ir.Instr, int) {
	// at returns constituent k of the window, or an invalid instruction
	// past the end or on a branch target (only the head may be one).
	at := func(k int) ir.Instr {
		if i+k >= len(code) || (k > 0 && targets[i+k]) {
			return ir.Instr{}
		}
		return code[i+k]
	}
	get := func(k int) bool { in := at(k); return in.Op == ir.OpLocalGet && in.A <= 0xFFFF }
	is := func(k int, w wasm.Opcode) bool { return isALU(at(k).Op, w) }
	if !get(0) || !get(1) {
		return ir.Instr{}, 0
	}
	// op, mul and add are the form's opcode with no trailing op, with the
	// f64.mul and with the f64.add, bare its address alone (0: none); k
	// is where its scale constant sits, alu idx1±k's i64.add or i64.sub.
	var op, mul, add, bare ir.Op
	var k int
	var alu wasm.Opcode
	A := at(0).A<<48 | at(1).A<<32
	switch {
	case at(2).Op == ir.OpConst && at(2).A <= 0xFFFFFFFF && is(3, wasm.OpI64ExtendI32S) &&
		(is(4, wasm.OpI64Add) || is(4, wasm.OpI64Sub)):
		op, add, k = ir.OpFusedIdx1KLoad, ir.OpFusedIdx1KLoadF64Add, 5
		A |= at(2).A
		alu = at(4).Op.Wasm()
	case at(2).Op == ir.OpConst:
		op, mul, add, bare, k = ir.OpFusedIdx1Load, ir.OpFusedIdx1LoadF64Mul, ir.OpFusedIdx1LoadF64Add, ir.OpFusedIdx1, 2
	case get(2) && is(3, wasm.OpI64Mul) && get(4) && is(5, wasm.OpI64Add):
		op, mul, k = ir.OpFusedIdx2Load, ir.OpFusedIdx2LoadF64Mul, 6
		A |= at(2).A<<16 | at(4).A
	case get(2) && is(3, wasm.OpI64Mul):
		mul, k = ir.OpFusedIdx3LoadF64Mul, 4
		A |= at(2).A << 16
	default:
		return ir.Instr{}, 0
	}
	scale, load := at(k), at(k+3)
	if scale.Op != ir.OpConst || scale.A > 0xFFFF ||
		!is(k+1, wasm.OpI64Mul) || !is(k+2, wasm.OpI64Add) {
		return ir.Instr{}, 0
	}
	if !load.Op.IsLoad() {
		if bare == 0 {
			return ir.Instr{}, 0
		}
		return ir.Instr{Op: bare, A: A, B: ir.PackIdxMem(scale.A, 0, 0)}, k + 3
	}
	size, variant, memOp, fits := memParts(load)
	if !fits || load.A > 0xFFFF {
		return ir.Instr{}, 0
	}
	// A trailing op joins the load unless it heads a reduction latch,
	// which takes it with the set, the induction step and the back edge:
	// acc += a[i] stays fused.idx1+load and one latch, where joining the
	// f64.add would leave the latch's six other constituents three
	// dispatches.
	n := k + 4
	if _, l := latch(code, i+n, len(code), targets); l == 0 {
		switch {
		case mul != 0 && is(n, wasm.OpF64Mul):
			op = mul
			n++
		case add != 0 && is(n, wasm.OpF64Add):
			op = add
			n++
		}
	}
	if op == 0 {
		return ir.Instr{}, 0
	}
	return ir.Instr{Op: op, A: A,
		B: ir.PackIdxMem(scale.A, load.A, ir.PackFusedMem(size, variant, alu, memOp))}, n
}

func fuseFunc(f *ir.Func) ir.Func {
	targets := branchTargets(f.Code)
	// newPC maps every old PC (and the one-past-end sentinel) to its
	// position in the rewritten stream; interior constituents map to
	// their head, but no branch can name them (match guarantees it).
	newPC := make([]int, len(f.Code)+1)
	code := make([]ir.Instr, 0, len(f.Code))
	// next is the first PC at or after i where an indexed load starts
	// (len(f.Code) if none), idx and idxN that load. Shapes yield to it:
	// no shape reaches past the head of an indexed load, which would
	// otherwise lose its leading local.get to a get+get+get+get or
	// get+get run. Each PC is scanned once.
	next := -1
	var idx ir.Instr
	var idxN int
	for i := 0; i < len(f.Code); {
		newPC[i] = len(code)
		if next < i {
			for next = i; next < len(f.Code); next++ {
				if f.Code[next].Op != ir.OpLocalGet || next+1 == len(f.Code) ||
					f.Code[next+1].Op != ir.OpLocalGet {
					continue // every indexed load starts get; get
				}
				if idx, idxN = indexedLoad(f.Code, next, targets); idxN > 0 {
					break
				}
			}
		}
		var in ir.Instr
		var n int
		if next == i {
			in, n = idx, idxN
		} else {
			in, n = match(f.Code, i, next, targets)
		}
		if n == 0 {
			code = append(code, f.Code[i])
			i++
			continue
		}
		for j := 1; j < n; j++ {
			newPC[i+j] = len(code)
		}
		in.Charge = f.Code[i].Charge
		code = append(code, in)
		i += n
	}
	newPC[len(f.Code)] = len(code)

	for pc := range code {
		in := &code[pc]
		in.Retarget(newPC)
		// Name the ALU constituents where the tuple has an idiom opcode.
		// Last, so match and the remap above only know the shapes.
		ir.Specialize(in)
	}

	g := *f
	g.Code = code
	return g
}
