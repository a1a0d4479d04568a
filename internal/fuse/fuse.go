// Package fuse is the superinstruction pass: a post-lowering rewrite
// over ir.Program that collapses every adjacent sequence matching one
// of its hand-written shapes — load+op, op+store, cmp+br, const+op,
// local traffic, up to seven-constituent loop latches — into single
// fused opcodes (ir.OpFusedBase block). There is one mode: a sequence
// that is eligible is fused, in the runtime exactly as in the fuzzer
// and the differential suites.
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
// (same arithmetic, same address-translation function, same cost
// events, same trap points and ordering), so a fused program is
// bit-identical to its unfused twin in results, traps, and the
// architectural event stream — the differential oracle pins this
// across every preset, and exec's TestIdiomsMatchConstituents pins each
// idiom to its own Constituents(). Safety rules:
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
// benchmark/layers.go spells, fuse.Fuse(p, profile.Default()) (ROADMAP
// item 5). Everything else passes nil.
func Fuse(p *ir.Program, _ any) *ir.Program {
	if p == nil || p.Fused {
		return p
	}
	out := &ir.Program{Cfg: p.Cfg, Funcs: make([]ir.Func, len(p.Funcs)), Fused: true}
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
func match(code []ir.Instr, i int, targets []bool) (ir.Instr, int) {
	a := code[i]
	var b, c ir.Instr
	if i+1 < len(code) {
		b = code[i+1]
	}
	if i+2 < len(code) {
		c = code[i+2]
	}
	pairOK := i+1 < len(code) && !targets[i+1]
	tripleOK := i+2 < len(code) && pairOK && !targets[i+2]
	quadOK := tripleOK && i+3 < len(code) && !targets[i+3]
	quintOK := quadOK && i+4 < len(code) && !targets[i+4]
	sextOK := quintOK && i+5 < len(code) && !targets[i+5]
	septOK := sextOK && i+6 < len(code) && !targets[i+6]

	if septOK {
		// alu0; set x; get y; const c; alu1; set y; br — the
		// accumulate-and-advance tail of a counted loop: retire the
		// reduction into x, bump the induction variable y, and take the
		// back edge. Like the quintuple latches this only matches a
		// zero-repair branch, so the executor truncates the stack.
		d, e, f, g := code[i+3], code[i+4], code[i+5], code[i+6]
		if b.Op == ir.OpLocalSet && c.Op == ir.OpLocalGet &&
			d.Op == ir.OpConst && f.Op == ir.OpLocalSet && f.A == c.A &&
			g.Op == ir.OpBr && g.A == 0 &&
			b.A <= 0xFFFF && c.A <= 0xFFFF && d.A <= 0xFF {
			if alu0, ok := aluOf(a); ok {
				if alu1, ok1 := aluOf(e); ok1 {
					return ir.Instr{Op: ir.OpFusedALUSetIncBr,
						A: uint64(alu0)<<48 | b.A<<32 | c.A<<16 | d.A<<8 | uint64(alu1),
						B: ir.PackFusedBranch(0, g.B)}, 7
				}
			}
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

func fuseFunc(f *ir.Func) ir.Func {
	targets := branchTargets(f.Code)
	// newPC maps every old PC (and the one-past-end sentinel) to its
	// position in the rewritten stream; interior constituents map to
	// their head, but no branch can name them (match guarantees it).
	newPC := make([]int, len(f.Code)+1)
	code := make([]ir.Instr, 0, len(f.Code))
	for i := 0; i < len(f.Code); {
		newPC[i] = len(code)
		in, n := match(f.Code, i, targets)
		if n == 0 {
			code = append(code, f.Code[i])
			i++
			continue
		}
		for j := 1; j < n; j++ {
			newPC[i+j] = len(code)
		}
		code = append(code, in)
		i += n
	}
	newPC[len(f.Code)] = len(code)

	for pc := range code {
		in := &code[pc]
		switch {
		case in.Op == ir.OpGoto || in.Op == ir.OpBr || in.Op == ir.OpBrIf || in.Op == ir.OpBrIfZ:
			in.B = uint64(newPC[in.B])
		case in.Op == ir.OpBrTable:
			ts := make([]ir.BranchTarget, len(in.Targets))
			copy(ts, in.Targets)
			for k := range ts {
				ts[k].PC = uint32(newPC[ts[k].PC])
			}
			in.Targets = ts
		case in.Op == ir.OpFusedSetBr || in.Op == ir.OpFusedCmpBrIf ||
			in.Op == ir.OpFusedCmpBrIfZ || in.Op == ir.OpFusedCmpEqzBrIf ||
			in.Op == ir.OpFusedGetGetCmpEqzBr || in.Op == ir.OpFusedIncBr ||
			in.Op == ir.OpFusedALUSetIncBr:
			in.B = ir.PackFusedBranch(ir.FusedBranchAux(in.B),
				uint64(newPC[ir.FusedBranchTarget(in.B)]))
		}
		// Name the ALU constituents where the tuple has an idiom opcode.
		// Last, so match and the remap above only know the shapes.
		ir.Specialize(in)
	}

	g := *f
	g.Code = code
	return g
}
