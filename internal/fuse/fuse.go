// Package fuse is the superinstruction pass: a post-lowering rewrite
// over ir.Program that collapses every adjacent sequence matching a row
// of internal/ir's form table — load+op, op+store, cmp+br, const+op,
// local traffic, seven-constituent loop latches, eight-constituent loop
// heads, indexed loads — into one fused opcode. The rows define each
// fused opcode's constituents and immediates; this package only decides
// where to try them. There is one mode: a sequence that is eligible is
// fused, in the runtime exactly as in the fuzzer and the differential
// suites.
//
// The largest forms are the indexed loads: an address built entirely
// from locals, b + i·c (idx1), b + (i·n + j)·c (idx2), b + i·n·c (idx3)
// or a stencil's b + (i ± k)·c (idx1±k), then the load, then an f64.mul
// or f64.add where one follows and the form has a row with it — six to
// eleven constituents, the whole operand side of a polybench inner
// product, in one dispatch. The matcher is greedy, left to right, the
// first row in precedence order (ir.Shapes: longest first, indexed by
// the kinds of the first three constituents) winning, with one
// exception: shapes yield to indexed forms. A pre-pass finds where each
// indexed form starts (ir.IndexedForms), and no shape may reach past
// the next one, so a local.get run that would otherwise swallow an
// indexed load's base (gemm's get+get+get+get, atax's get s; get A;
// get i; get n) stops short of it. That rule took the hot loops of
// gemm, atax and the ptr-auth 2mm from 7–9 dispatches per iteration to
// 5; with the idx1±k loads, fused.idx1 and the head of i < n ± k,
// jacobi-1d's 3-point stencil runs in 8 instead of 17.
//
// What a fused opcode saves is decided by its row, not in the executor.
// A shape (fused.const+alu+alu) carries its ALU ops as immediates: it
// saves the dispatch loop's head per constituent merged, but the
// executor still decides "which ALU op is this" at every dispatch. An
// idiom (fused.const+i64.mul+i64.add) is a row whose ALU slots are
// exact ops, placed just before its shape: the pass emits it where the
// tuple is the one it names, and the executor runs it as straight-line
// code over Go locals. Every other tuple keeps its shape.
//
// The pass is semantics- and event-preserving by construction: every
// fused opcode's executor handler runs the exact constituent sequence
// (same arithmetic, same address-translation function, same trap points
// and ordering), and its events are not the handler's at all: the
// fused program keeps the lowered program's event table
// (ir.BuildCharges), each fused instruction indexing its head's region,
// which is the same instructions — so a fused program is bit-identical
// to its unfused twin in results, traps, and the architectural event
// stream. The differential oracle pins this across every preset, and
// exec's TestIdiomsMatchConstituents pins each straight-line opcode to
// its own Constituents(). Safety rules:
//
//   - No row contains OpFence, so the hardened preset's speculation
//     barriers are never fused across; fence adjacency is untouched by
//     construction.
//   - A candidate is rejected if any non-head constituent is a branch
//     target: control flow can enter a superinstruction only at its
//     head, exactly like the plain instruction stream.
//   - Branch targets (absolute PCs) are remapped to the rewritten
//     stream, including BrTable target vectors (deep-copied — lowering
//     may share them) and the targets packed inside fused branches.
//
// Fuse refuses to run twice (Program.Fused) because PCs change.
package fuse

import "cage/internal/ir"

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

func fuseFunc(f *ir.Func) ir.Func {
	targets := branchTargets(f.Code)
	// newPC maps every old PC (and the one-past-end sentinel) to its
	// position in the rewritten stream; interior constituents map to
	// their head, but no branch can name them (ir.Match guarantees it).
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
				forms := ir.IndexedForms(f.Code, next)
				if len(forms) == 0 {
					continue // most pcs; the check keeps the call off them
				}
				if idx, idxN = ir.Match(forms, f.Code, next, len(f.Code), targets); idxN > 0 {
					break
				}
			}
		}
		var in ir.Instr
		var n int
		if next == i {
			in, n = idx, idxN
		} else if forms := ir.Shapes(f.Code, i, next); len(forms) > 0 {
			in, n = ir.Match(forms, f.Code, i, next, targets)
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
		code[pc].Retarget(newPC)
	}

	g := *f
	g.Code = code
	return g
}
