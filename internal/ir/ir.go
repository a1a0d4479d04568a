package ir

import (
	"fmt"

	"cage/internal/wasm"
)

// Op is a lowered opcode. Control flow, calls, and memory accesses get
// dedicated dense opcodes; pure value (numeric) instructions pass
// through as OpNumericBase+wasm-opcode so the executor's numeric ALU
// keeps a single switch.
//
// Numbering follows the density rule the executor's dispatch depends on
// (internal/exec/doc.go, "Dispatch"): named and fused opcodes are one
// contiguous block [0, endFusedOps) — the cases of the loop's
// `switch in.Op`, which Go compiles to a jump table only while their
// values span at most four times their count — and the numerics sit
// apart behind its `default`. A new opcode is appended inside its
// block, never given a base of its own; TestOpSpaceDense and CI's
// objdump step hold the line.
type Op uint16

// Lowered opcodes. The memory-access family is specialized at lower
// time on the instance's sandboxing strategy (paper Figs. 12–13) so the
// hot dispatch loop never branches on the mode:
//
//   - G32: wasm32 guard-page sandboxing (no per-access check cost)
//   - B64: wasm64 software bounds check; Tag variants add the MTE
//     memory-safety tag check; NC variants model a disabled (buggy)
//     bounds check, limited only by the host mapping
//   - MTE: MTE-based sandboxing (index mask + tag check); the NC
//     variant drops the mask
const (
	OpInvalid Op = iota

	// Control flow, fully resolved to absolute lowered PCs.
	OpUnreachable
	OpGoto    // unconditional jump, no cost event (else-arm skip)
	OpBr      // unconditional branch with stack repair (br)
	OpBrIf    // pop cond, branch if non-zero (br_if)
	OpBrIfZ   // pop cond, branch if zero (the "if" conditional)
	OpBrTable // pop index, branch through Targets (default last)
	OpReturn  // explicit return
	OpRetEnd  // fall-through function epilogue, no cost event

	// Calls.
	OpCall         // A = callee index, B = param count
	OpCallIndirect // A = type index, B = param count

	// Parametric / variable / constant.
	OpDrop
	OpSelect
	OpLocalGet  // A = local index
	OpLocalSet  // A = local index
	OpLocalTee  // A = local index
	OpGlobalGet // A = global index
	OpGlobalSet // A = global index
	OpConst     // A = raw value bits (i32/i64/f32/f64 alike)

	// Memory management and bulk ops.
	OpMemorySize
	OpMemoryGrow
	OpMemoryFill
	OpMemoryCopy

	// Cage segment ops. A = static offset immediate.
	OpSegmentNew
	OpSegmentSetTag
	OpSegmentFree

	// Pointer authentication. The Nop variants are chosen at lower time
	// when the feature is off: they keep the timing-model event (the
	// paper's software-fallback deployment still executes the
	// instruction) but touch nothing.
	OpPtrSign
	OpPtrAuth
	OpPtrSignNop
	OpPtrAuthNop

	// Loads: A = memarg offset, B = size<<32 | wasm opcode (extension).
	OpLoadG32
	OpLoadG32NC
	OpLoadB64
	OpLoadB64NC
	OpLoadB64Tag
	OpLoadB64NCTag
	OpLoadMTE
	OpLoadMTENC
	// OpLoadG32G is the guard-region variant of OpLoadG32, selected when
	// Config.Guard is set and the memarg offset fits GuardMaxOffset: the
	// executor's linear memory is an mmap reservation whose tail is
	// PROT_NONE (internal/vmem), so the access needs no explicit Go-level
	// bounds check — an out-of-bounds address faults in the MMU exactly
	// like the paper's guard pages, and the executor converts the fault
	// to TrapOutOfBounds. Event accounting is unchanged: the guard32
	// strategy charges no per-access check events either way.
	OpLoadG32G

	// Stores: same immediates as loads.
	OpStoreG32
	OpStoreG32NC
	OpStoreB64
	OpStoreB64NC
	OpStoreB64Tag
	OpStoreB64NCTag
	OpStoreMTE
	OpStoreMTENC
	// OpStoreG32G is the guard-region variant of OpStoreG32; see
	// OpLoadG32G.
	OpStoreG32G

	// OpFence is the Swivel-style speculation barrier the hardened
	// lowering (Config.Harden) inserts immediately before every indirect
	// branch (call_indirect, br_table) and every return. It has no
	// semantic effect — no operands, no stack motion — and exists purely
	// to charge the timing model's fence event, so a hardened program is
	// bit-identical to its unhardened twin in results and traps while
	// the mitigation tax stays visible in the event stream.
	OpFence

	numNamedOps
)

// OpNumericBase offsets pass-through numeric opcodes: a lowered op in
// [OpNumericBase, OpNumericBase+0x100) encodes
// wasm.Opcode(op - OpNumericBase). Wasm numeric opcodes are single
// bytes, so the block is exactly 0x100 wide. It is the one block the
// dispatch switch does not enumerate — numerics reach their own dense
// switch on the wasm opcode through `default` — so it may sit anywhere
// above endFusedOps.
const OpNumericBase Op = 0x100

// IsNumeric reports whether op is a pass-through numeric opcode.
func (op Op) IsNumeric() bool { return op >= OpNumericBase && op < OpNumericBase+0x100 }

// Wasm returns the wasm opcode of a pass-through numeric op.
func (op Op) Wasm() wasm.Opcode { return wasm.Opcode(op - OpNumericBase) }

// IsLoad reports whether op is a lowered load.
func (op Op) IsLoad() bool { return op >= OpLoadG32 && op <= OpLoadG32G }

// IsStore reports whether op is a lowered store.
func (op Op) IsStore() bool { return op >= OpStoreG32 && op <= OpStoreG32G }

// GuardMaxOffset is the largest memarg offset the guard lowering
// (Config.Guard) leaves unchecked. The guard reservation's PROT_NONE
// tail (internal/vmem's headroom) must cover the worst case
// 32-bit index + GuardMaxOffset + 8-byte access beyond the 4 GiB
// guest limit; offsets above it fall back to the explicitly checked
// opcode at lower time, so correctness never depends on headroom an
// embedder might shrink.
const GuardMaxOffset = 1 << 20

// OpFusedBase offsets the superinstruction block: fused opcodes the
// fuse pass (internal/fuse) rewrites adjacent sequences of two to eleven
// instructions into. Each fused opcode executes its constituent lowered
// instructions in order — identical semantics, identical trap points,
// identical timing-model events — in a single dispatch. Branch targets
// embedded in fused opcodes are absolute PCs into the *fused* code.
//
// The block starts where the named opcodes end, with no gap (see Op);
// nothing persists an opcode's number, so it moves whenever a named
// opcode is added.
const OpFusedBase Op = numNamedOps

// Fused superinstructions. Immediate encodings (aux fields are
// documented per opcode; "alu" is always a single-byte wasm numeric
// opcode, "x"/"y" local indices, "target" an absolute fused PC):
//
//	OpFusedGetGet      local.get x; local.get y          A=x, B=y
//	OpFusedGetConst    local.get x; const c              A=x, B=c
//	OpFusedConstALU    const c; alu                      A=c, B=alu
//	OpFusedGetALU      local.get x; alu                  A=x, B=alu
//	OpFusedGetGetALU   local.get x; local.get y; alu     A=x<<32|y, B=alu
//	OpFusedGetConstALU local.get x; const c; alu         A=c, B=x<<32|alu
//	OpFusedALUSet      alu; local.set x                  A=x, B=alu
//	OpFusedSetGet      local.set x; local.get y          A=x, B=y
//	OpFusedSetBr       local.set x; br                   A=PackBranch, B=x<<32|target
//	OpFusedCmpBrIf     alu; br_if                        A=PackBranch, B=alu<<32|target
//	OpFusedCmpBrIfZ    alu; br_ifz                       A=PackBranch, B=alu<<32|target
//	OpFusedCmpEqzBrIf  alu; i32.eqz; br_if               A=PackBranch, B=alu<<32|target
//	OpFusedLoadALU     load; alu                         A=offset, B=PackFusedMem
//	OpFusedALULoad     alu; load                         A=offset, B=PackFusedMem
//	OpFusedALUStore    alu; store                        A=offset, B=PackFusedMem
//	OpFusedConstALUALU const c; alu1; alu2               A=c, B=alu2<<8|alu1
//	OpFusedGetALUGetALU  get x; alu1; get y; alu2        A=x<<32|y, B=alu2<<8|alu1
//	OpFusedGetGetCmpEqzBr get x; get y; cmp; i32.eqz; br_if  A=x<<32|y, B=cmp<<32|target
//	OpFusedIncBr       get x; const c; alu; set x; br    A=c<<8|alu, B=x<<32|target
//	OpFusedGet4        get w; get x; get y; get z        A=w<<48|x<<32|y<<16|z
//	OpFusedGet3ALUGetALU  get w; get x; get y; alu1; get z; alu2  A=w<<48|x<<32|y<<16|z, B=alu2<<8|alu1
//	OpFusedConstALUALULoadALU  const c; alu1; alu2; load; alu3  A=c<<32|offset, B=alu2<<40|alu1<<32|PackFusedMem
//	OpFusedALUSetIncBr alu0; set x; get y; const c; alu1; set y; br  A=alu0<<48|x<<32|y<<16|c<<8|alu1, B=target
//
// The indexed loads follow the shapes. Each is a fixed sequence — an
// i64 address built from locals and one scale constant, then a load,
// optionally then f64.mul or f64.add — so its opcode names every
// constituent and the executor runs it as straight-line code (a form
// and trailing op that fired nowhere in the polybench kernels has no
// opcode). They share one encoding, locals in A by position and the
// scale and memarg offset above the memory pack in B; fields a form
// does not use are zero. The idx1±k forms index with i ± k, k an i32
// constant extended to i64: A's low 32 bits hold k's raw bits in place
// of n and j, and the memory pack's ALU byte says i64.add or i64.sub
// (IdxDelta reads both). OpFusedIdx1 is the idx1 address with no load
// behind it, the store side of B[i] = …:
//
//	OpFusedIdx1Load[F64Mul|F64Add]  get b; get i; const c; i64.mul; i64.add; load [; f64.mul|f64.add]
//	OpFusedIdx2Load[F64Mul]  get b; get i; get n; i64.mul; get j; i64.add; const c; i64.mul; i64.add; load [; f64.mul]
//	OpFusedIdx3LoadF64Mul    get b; get i; get n; i64.mul; const c; i64.mul; i64.add; load; f64.mul
//	                         A=b<<48|i<<32|n<<16|j, B=c<<48|offset<<32|PackFusedMem(size, variant, 0, memOp)
//	OpFusedIdx1KLoad[F64Add] get b; get i; const k; i64.extend_i32_s; i64.add|sub; const c; i64.mul; i64.add; load [; f64.add]
//	                         A=b<<48|i<<32|k, B=c<<48|offset<<32|PackFusedMem(size, variant, add|sub, memOp)
//	OpFusedIdx1              get b; get i; const c; i64.mul; i64.add       A=b<<48|i<<32, B=c<<48
//
// The loop head of `i < n ± k` closes the straight-line block. Like
// the quintuple head it only matches a zero repair pack:
//
//	OpFusedGetGetKI64LtSEqzBr  get x; get y; const k; i64.extend_i32_s; i64.add|sub; i64.lt_s; i32.eqz; br_if
//	                           A=x<<48|y<<32|k, B=PackFusedBranch(add|sub, target)
//
// The two loop-shaped quintuples (OpFusedGetGetCmpEqzBr heads,
// OpFusedIncBr latches) only match branches with a zero repair pack
// (keep=0, arity=0) — the shape structured lowering gives every loop
// back-edge — so their handlers truncate the operand stack outright.
//
// The opcodes above are shape-generic: they carry their ALU opcodes as
// immediates and the executor decides which op to run at every
// dispatch. The idiom opcodes that follow them are the same shapes
// with the ALU constituents named in the opcode (idiom.go): the fuse
// pass emits one where the tuple has one, the immediates are the
// shape's with the ALU fields zero, and the executor runs it as
// straight-line code. Mnemonics spell the ops:
//
//	OpFusedConstI64MulAdd          const c; i64.mul; i64.add                      (OpFusedConstALUALU)
//	OpFusedConstI64MulAddLoadF64Mul|Add|Sub
//	                               const c; i64.mul; i64.add; load; f64.mul|add|sub  (OpFusedConstALUALULoadALU)
//	OpFusedGetGetI64LtSEqzBr       get x; get y; i64.lt_s; i32.eqz; br_if         (OpFusedGetGetCmpEqzBr)
//	OpFusedF64AddSetI64IncBr|Sub   f64.add|sub; set x; get y; const c; i64.add; set y; br  (OpFusedALUSetIncBr)
//	OpFusedGet3I64MulGetAdd        get w; get x; get y; i64.mul; get z; i64.add   (OpFusedGet3ALUGetALU)
//	OpFusedConstExtendI64Add|Sub   const c; i64.extend_i32_s; i64.add|sub         (OpFusedConstALUALU)
//	OpFusedI64IncBr                get x; const c; i64.add; set x; br             (OpFusedIncBr)
//	OpFusedGetI64MulGetAdd         get x; i64.mul; get y; i64.add                 (OpFusedGetALUGetALU)
const (
	OpFusedGetGet Op = OpFusedBase + iota
	OpFusedGetConst
	OpFusedConstALU
	OpFusedGetALU
	OpFusedGetGetALU
	OpFusedGetConstALU
	OpFusedALUSet
	OpFusedSetGet
	OpFusedSetBr
	OpFusedCmpBrIf
	OpFusedCmpBrIfZ
	OpFusedCmpEqzBrIf
	OpFusedLoadALU
	OpFusedALULoad
	OpFusedALUStore
	OpFusedConstALUALU
	OpFusedGetALUGetALU
	OpFusedGetGetCmpEqzBr
	OpFusedIncBr
	OpFusedGet4
	OpFusedGet3ALUGetALU
	OpFusedConstALUALULoadALU
	OpFusedALUSetIncBr

	// Indexed loads (address = b + (i[·n][+j] | i±k)·c, see above), the
	// bare idx1 address, and the i < n ± k head.
	OpFusedIdx1Load
	OpFusedIdx1LoadF64Mul
	OpFusedIdx2Load
	OpFusedIdx2LoadF64Mul
	OpFusedIdx3LoadF64Mul
	OpFusedIdx1LoadF64Add
	OpFusedIdx1KLoad
	OpFusedIdx1KLoadF64Add
	OpFusedIdx1
	OpFusedGetGetKI64LtSEqzBr

	// Idioms, in order of dynamic share over the polybench kernels. A new
	// one is appended here — inside the fused block, so the dispatch
	// switch stays a jump table — with a row in the idioms table.
	OpFusedConstI64MulAdd
	OpFusedConstI64MulAddLoadF64Mul
	OpFusedConstI64MulAddLoadF64Add
	OpFusedConstI64MulAddLoadF64Sub
	OpFusedGetGetI64LtSEqzBr
	OpFusedF64AddSetI64IncBr
	OpFusedF64SubSetI64IncBr
	OpFusedGet3I64MulGetAdd
	OpFusedConstExtendI64Add
	OpFusedConstExtendI64Sub
	OpFusedI64IncBr
	OpFusedGetI64MulGetAdd
	endFusedOps
)

// firstIdiomOp is where the idiom opcodes start inside the fused block.
const firstIdiomOp = OpFusedConstI64MulAdd

// Constant expressions that stop compiling when the enumerated block
// reaches the numerics or a named opcode outgrows PackFusedMem's 8-bit
// variant field.
const (
	_ = uint(OpNumericBase - endFusedOps)
	_ = uint(0xFF - (numNamedOps - 1))
)

// IsFused reports whether op is a fused superinstruction.
func (op Op) IsFused() bool { return op >= OpFusedBase && op < endFusedOps }

// IsIndexed reports whether op is an indexed load or OpFusedIdx1, the
// address of one without the load.
func (op Op) IsIndexed() bool { return op >= OpFusedIdx1Load && op <= OpFusedIdx1 }

// IsFusedBranch reports whether op is a fused superinstruction that ends
// in a branch, whose absolute target is packed in B (PackFusedBranch).
func (op Op) IsFusedBranch() bool {
	if op >= firstIdiomOp && op < endFusedOps {
		op = idioms[op-firstIdiomOp].Shape
	}
	switch op {
	case OpFusedSetBr, OpFusedCmpBrIf, OpFusedCmpBrIfZ, OpFusedCmpEqzBrIf,
		OpFusedGetGetCmpEqzBr, OpFusedIncBr, OpFusedALUSetIncBr, OpFusedGetGetKI64LtSEqzBr:
		return true
	}
	return false
}

// Retarget rewrites every branch target in — a plain branch's, each
// br_table entry's (in a fresh vector: lowering may share one) and the
// one packed in a fused branch — through newPC, indexed by old PC.
func (in *Instr) Retarget(newPC []int) {
	switch {
	case in.Op == OpGoto || in.Op == OpBr || in.Op == OpBrIf || in.Op == OpBrIfZ:
		in.B = uint64(newPC[in.B])
	case in.Op == OpBrTable:
		ts := make([]BranchTarget, len(in.Targets))
		copy(ts, in.Targets)
		for k := range ts {
			ts[k].PC = uint32(newPC[ts[k].PC])
		}
		in.Targets = ts
	case in.Op.IsFusedBranch():
		in.B = PackFusedBranch(FusedBranchAux(in.B), uint64(newPC[FusedBranchTarget(in.B)]))
	}
}

// PackFusedMem packs the memory half of a fused load/store — access
// width, the specialized (unfused) memory opcode, the ALU constituent,
// and the originating wasm memory opcode — into the B immediate. All
// four fields are single bytes: named lowered opcodes, wasm numeric
// opcodes, and wasm load/store opcodes each fit 8 bits.
func PackFusedMem(size uint64, mem Op, alu wasm.Opcode, memOp wasm.Opcode) uint64 {
	return size<<24 | uint64(mem)<<16 | uint64(alu)<<8 | uint64(uint8(memOp))
}

// FusedMemSize unpacks the access width of a fused load/store.
func FusedMemSize(b uint64) uint64 { return (b >> 24) & 0xFF }

// FusedMemVariant unpacks the specialized memory opcode the fused
// access executes as (OpLoadG32, OpStoreB64Tag, ...).
func FusedMemVariant(b uint64) Op { return Op((b >> 16) & 0xFF) }

// FusedMemALU unpacks the ALU constituent of a fused load/store.
func FusedMemALU(b uint64) wasm.Opcode { return wasm.Opcode((b >> 8) & 0xFF) }

// FusedMemOp unpacks the originating wasm memory opcode (which fixes
// the load extension).
func FusedMemOp(b uint64) wasm.Opcode { return wasm.Opcode(b & 0xFF) }

// PackIdxMem packs an indexed load's B immediate: the scale constant
// and the memarg offset above the memory pack (PackFusedMem, ALU zero).
// The fuse pass only emits scales and offsets that fit 16 bits.
func PackIdxMem(scale, offset, mem uint64) uint64 { return scale<<48 | offset<<32 | mem }

// IdxScale unpacks an indexed load's scale constant.
func IdxScale(b uint64) uint64 { return b >> 48 }

// IdxOffset unpacks an indexed load's memarg offset.
func IdxOffset(b uint64) uint64 { return (b >> 32) & 0xFFFF }

// IdxDelta returns what an idx1±k form or the i < n ± k head adds to
// its index: the i32 constant k in a's low 32 bits, sign-extended, and
// negated when alu is i64.sub. The sum wraps like the constituents'
// i64.add / i64.sub, so every k is exact, 0x80000000 included.
func IdxDelta(a uint64, alu wasm.Opcode) uint64 {
	d := uint64(int64(int32(a)))
	if alu == wasm.OpI64Sub {
		return -d
	}
	return d
}

// PackFusedBranch packs a fused branch's auxiliary field (the local
// index of OpFusedSetBr, the ALU opcode of OpFusedCmpBrIf*) above its
// absolute target PC.
func PackFusedBranch(aux, target uint64) uint64 { return aux<<32 | uint64(uint32(target)) }

// FusedBranchTarget unpacks a fused branch's absolute target PC.
func FusedBranchTarget(b uint64) int { return int(uint32(b)) }

// FusedBranchAux unpacks a fused branch's auxiliary field.
func FusedBranchAux(b uint64) uint64 { return b >> 32 }

var opNames = [...]string{
	OpInvalid: "invalid", OpUnreachable: "unreachable", OpGoto: "goto",
	OpBr: "br", OpBrIf: "br_if", OpBrIfZ: "br_ifz", OpBrTable: "br_table",
	OpReturn: "return", OpRetEnd: "ret_end",
	OpCall: "call", OpCallIndirect: "call_indirect",
	OpDrop: "drop", OpSelect: "select",
	OpLocalGet: "local.get", OpLocalSet: "local.set", OpLocalTee: "local.tee",
	OpGlobalGet: "global.get", OpGlobalSet: "global.set", OpConst: "const",
	OpMemorySize: "memory.size", OpMemoryGrow: "memory.grow",
	OpMemoryFill: "memory.fill", OpMemoryCopy: "memory.copy",
	OpSegmentNew: "segment.new", OpSegmentSetTag: "segment.set_tag",
	OpSegmentFree: "segment.free",
	OpPtrSign:     "ptr_sign", OpPtrAuth: "ptr_auth",
	OpPtrSignNop: "ptr_sign.nop", OpPtrAuthNop: "ptr_auth.nop",
	OpLoadG32: "load.g32", OpLoadG32NC: "load.g32.nc",
	OpLoadB64: "load.b64", OpLoadB64NC: "load.b64.nc",
	OpLoadB64Tag: "load.b64.tag", OpLoadB64NCTag: "load.b64.nc.tag",
	OpLoadMTE: "load.mte", OpLoadMTENC: "load.mte.nc",
	OpLoadG32G: "load.g32.guard",
	OpStoreG32: "store.g32", OpStoreG32NC: "store.g32.nc",
	OpStoreB64: "store.b64", OpStoreB64NC: "store.b64.nc",
	OpStoreB64Tag: "store.b64.tag", OpStoreB64NCTag: "store.b64.nc.tag",
	OpStoreMTE: "store.mte", OpStoreMTENC: "store.mte.nc",
	OpStoreG32G: "store.g32.guard",
	OpFence:     "fence",

	OpFusedGetGet:             "fused.get+get",
	OpFusedGetConst:           "fused.get+const",
	OpFusedConstALU:           "fused.const+alu",
	OpFusedGetALU:             "fused.get+alu",
	OpFusedGetGetALU:          "fused.get+get+alu",
	OpFusedGetConstALU:        "fused.get+const+alu",
	OpFusedALUSet:             "fused.alu+set",
	OpFusedSetGet:             "fused.set+get",
	OpFusedSetBr:              "fused.set+br",
	OpFusedCmpBrIf:            "fused.cmp+br_if",
	OpFusedCmpBrIfZ:           "fused.cmp+br_ifz",
	OpFusedCmpEqzBrIf:         "fused.cmp+eqz+br_if",
	OpFusedLoadALU:            "fused.load+alu",
	OpFusedALULoad:            "fused.alu+load",
	OpFusedALUStore:           "fused.alu+store",
	OpFusedConstALUALU:        "fused.const+alu+alu",
	OpFusedGetALUGetALU:       "fused.get+alu+get+alu",
	OpFusedGetGetCmpEqzBr:     "fused.get+get+cmp+eqz+br_if",
	OpFusedIncBr:              "fused.inc+br",
	OpFusedGet4:               "fused.get+get+get+get",
	OpFusedGet3ALUGetALU:      "fused.get3+alu+get+alu",
	OpFusedConstALUALULoadALU: "fused.const+alu+alu+load+alu",
	OpFusedALUSetIncBr:        "fused.alu+set+inc+br",
	OpFusedIdx1Load:           "fused.idx1+load",
	OpFusedIdx1LoadF64Mul:     "fused.idx1+load+f64.mul",
	OpFusedIdx2Load:           "fused.idx2+load",
	OpFusedIdx2LoadF64Mul:     "fused.idx2+load+f64.mul",
	OpFusedIdx3LoadF64Mul:     "fused.idx3+load+f64.mul",
	OpFusedIdx1LoadF64Add:     "fused.idx1+load+f64.add",
	OpFusedIdx1KLoad:          "fused.idx1±k+load",
	OpFusedIdx1KLoadF64Add:    "fused.idx1±k+load+f64.add",
	OpFusedIdx1:               "fused.idx1",
	OpFusedGetGetKI64LtSEqzBr: "fused.get+get+k+i64.lt_s+eqz+br_if",

	OpFusedConstI64MulAdd:           "fused.const+i64.mul+i64.add",
	OpFusedConstI64MulAddLoadF64Mul: "fused.const+i64.mul+i64.add+load+f64.mul",
	OpFusedConstI64MulAddLoadF64Add: "fused.const+i64.mul+i64.add+load+f64.add",
	OpFusedConstI64MulAddLoadF64Sub: "fused.const+i64.mul+i64.add+load+f64.sub",
	OpFusedGetGetI64LtSEqzBr:        "fused.get+get+i64.lt_s+eqz+br_if",
	OpFusedF64AddSetI64IncBr:        "fused.f64.add+set+inc.i64.add+br",
	OpFusedF64SubSetI64IncBr:        "fused.f64.sub+set+inc.i64.add+br",
	OpFusedGet3I64MulGetAdd:         "fused.get3+i64.mul+get+i64.add",
	OpFusedConstExtendI64Add:        "fused.const+i64.extend_i32_s+i64.add",
	OpFusedConstExtendI64Sub:        "fused.const+i64.extend_i32_s+i64.sub",
	OpFusedI64IncBr:                 "fused.inc.i64.add+br",
	OpFusedGetI64MulGetAdd:          "fused.get+i64.mul+get+i64.add",
}

// String returns the lowered mnemonic.
func (op Op) String() string {
	if op.IsNumeric() {
		return op.Wasm().String()
	}
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("irop(0x%x)", uint16(op))
}

// BranchTarget is one resolved br_table destination.
type BranchTarget struct {
	PC    uint32 // absolute lowered pc
	Keep  uint32 // operand-stack height to truncate to
	Arity uint32 // values carried over the branch
}

// PackBranch packs the stack repair of a branch into the A immediate.
func PackBranch(keep, arity int) uint64 {
	return uint64(keep)<<32 | uint64(uint32(arity))
}

// BranchKeep unpacks the stack height from a packed branch immediate.
func BranchKeep(a uint64) int { return int(a >> 32) }

// BranchArity unpacks the carried-value count from a packed immediate.
func BranchArity(a uint64) int { return int(uint32(a)) }

// PackMem packs a memory access's byte width and originating wasm
// opcode (which fixes the load extension) into the B immediate.
func PackMem(size uint64, op wasm.Opcode) uint64 {
	return size<<32 | uint64(uint32(op))
}

// MemSize unpacks the access width from a packed memory immediate.
func MemSize(b uint64) uint64 { return b >> 32 }

// MemOp unpacks the originating wasm opcode from a packed immediate.
func MemOp(b uint64) wasm.Opcode { return wasm.Opcode(uint32(b)) }

// Instr is one lowered instruction. The meaning of A and B depends on
// the opcode:
//
//	OpBr/OpBrIf/OpBrIfZ  A = PackBranch(keep, arity), B = target pc
//	OpGoto               B = target pc
//	OpBrTable            Targets (default entry last)
//	OpReturn/OpRetEnd    A = result count
//	OpCall               A = callee function index, B = param count
//	OpCallIndirect       A = type index, B = param count
//	OpLocal*/OpGlobal*   A = index
//	OpConst              A = value bits
//	loads/stores         A = memarg offset, B = PackMem(size, wasmOp)
//	OpSegment*           A = static offset immediate
//
// Charge, in the padding after Op, indexes in Program.Charges the
// region from the instruction through the next control transfer
// (BuildCharges); the executor counts its entries by the same index.
type Instr struct {
	Op      Op
	Charge  uint32
	A       uint64
	B       uint64
	Targets []BranchTarget
}

// String renders a readable disassembly of the lowered instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpGoto:
		return fmt.Sprintf("%s ->%d", in.Op, in.B)
	case OpBr, OpBrIf, OpBrIfZ:
		return fmt.Sprintf("%s ->%d keep=%d arity=%d",
			in.Op, in.B, BranchKeep(in.A), BranchArity(in.A))
	case OpBrTable:
		s := fmt.Sprintf("%s", in.Op)
		for i, t := range in.Targets {
			sep := " "
			if i == len(in.Targets)-1 {
				sep = " default="
			}
			s += fmt.Sprintf("%s->%d(keep=%d,arity=%d)", sep, t.PC, t.Keep, t.Arity)
		}
		return s
	case OpReturn, OpRetEnd:
		return fmt.Sprintf("%s arity=%d", in.Op, in.A)
	case OpCall:
		return fmt.Sprintf("%s func=%d nargs=%d", in.Op, in.A, in.B)
	case OpCallIndirect:
		return fmt.Sprintf("%s type=%d nargs=%d", in.Op, in.A, in.B)
	case OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	case OpConst:
		return fmt.Sprintf("%s %#x", in.Op, in.A)
	case OpSegmentNew, OpSegmentSetTag, OpSegmentFree:
		return fmt.Sprintf("%s offset=%d", in.Op, in.A)
	case OpFence:
		return "fence ;; speculation barrier (hardened)"
	case OpFusedSetBr, OpFusedCmpBrIf, OpFusedCmpBrIfZ, OpFusedCmpEqzBrIf:
		return fmt.Sprintf("%s ->%d keep=%d arity=%d",
			in.Op, FusedBranchTarget(in.B), BranchKeep(in.A), BranchArity(in.A))
	case OpFusedLoadALU, OpFusedALULoad, OpFusedALUStore:
		return fmt.Sprintf("%s offset=%d size=%d (%s; %s)",
			in.Op, in.A, FusedMemSize(in.B), FusedMemOp(in.B), FusedMemALU(in.B))
	case OpFusedConstI64MulAddLoadF64Mul, OpFusedConstI64MulAddLoadF64Add,
		OpFusedConstI64MulAddLoadF64Sub:
		return fmt.Sprintf("%s offset=%d size=%d (%s)",
			in.Op, uint32(in.A), FusedMemSize(in.B), FusedMemOp(in.B))
	case OpFusedIdx1Load, OpFusedIdx1LoadF64Mul, OpFusedIdx2Load, OpFusedIdx2LoadF64Mul,
		OpFusedIdx3LoadF64Mul, OpFusedIdx1LoadF64Add:
		return fmt.Sprintf("%s offset=%d size=%d (%s)",
			in.Op, IdxOffset(in.B), FusedMemSize(in.B), FusedMemOp(in.B))
	case OpFusedIdx1KLoad, OpFusedIdx1KLoadF64Add:
		return fmt.Sprintf("%s k=%+d offset=%d size=%d (%s)", in.Op, int64(IdxDelta(in.A, FusedMemALU(in.B))),
			IdxOffset(in.B), FusedMemSize(in.B), FusedMemOp(in.B))
	case OpFusedGetGetKI64LtSEqzBr:
		return fmt.Sprintf("%s k=%+d ->%d", in.Op,
			int64(IdxDelta(in.A, wasm.Opcode(FusedBranchAux(in.B)))), FusedBranchTarget(in.B))
	}
	if in.Op.IsFused() {
		return in.Op.String()
	}
	if in.Op.IsLoad() || in.Op.IsStore() {
		return fmt.Sprintf("%s offset=%d size=%d (%s)",
			in.Op, in.A, MemSize(in.B), MemOp(in.B))
	}
	return in.Op.String()
}

// Constituents expands a fused superinstruction into the exact lowered
// instructions it executes, in order — the expansion cage-objdump
// prints inline and the fuse pass's round-trip validation checks
// against. Branch constituents carry the fused instruction's (already
// remapped) target. An idiom expands as the generic shape it names the
// ALU constituents of. For non-fused instructions it returns nil.
func (in Instr) Constituents() []Instr {
	if g, ok := in.generic(); ok {
		in = g
	}
	num := func(alu wasm.Opcode) Instr { return Instr{Op: OpNumericBase + Op(alu)} }
	switch in.Op {
	case OpFusedGetGet:
		return []Instr{{Op: OpLocalGet, A: in.A}, {Op: OpLocalGet, A: in.B}}
	case OpFusedGetConst:
		return []Instr{{Op: OpLocalGet, A: in.A}, {Op: OpConst, A: in.B}}
	case OpFusedConstALU:
		return []Instr{{Op: OpConst, A: in.A}, num(wasm.Opcode(in.B))}
	case OpFusedGetALU:
		return []Instr{{Op: OpLocalGet, A: in.A}, num(wasm.Opcode(in.B))}
	case OpFusedGetGetALU:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 32},
			{Op: OpLocalGet, A: uint64(uint32(in.A))},
			num(wasm.Opcode(in.B)),
		}
	case OpFusedGetConstALU:
		return []Instr{
			{Op: OpLocalGet, A: FusedBranchAux(in.B)},
			{Op: OpConst, A: in.A},
			num(wasm.Opcode(uint32(in.B))),
		}
	case OpFusedALUSet:
		return []Instr{num(wasm.Opcode(in.B)), {Op: OpLocalSet, A: in.A}}
	case OpFusedSetGet:
		return []Instr{{Op: OpLocalSet, A: in.A}, {Op: OpLocalGet, A: in.B}}
	case OpFusedSetBr:
		return []Instr{
			{Op: OpLocalSet, A: FusedBranchAux(in.B)},
			{Op: OpBr, A: in.A, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedCmpBrIf:
		return []Instr{
			num(wasm.Opcode(FusedBranchAux(in.B))),
			{Op: OpBrIf, A: in.A, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedCmpBrIfZ:
		return []Instr{
			num(wasm.Opcode(FusedBranchAux(in.B))),
			{Op: OpBrIfZ, A: in.A, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedCmpEqzBrIf:
		return []Instr{
			num(wasm.Opcode(FusedBranchAux(in.B))),
			num(wasm.OpI32Eqz),
			{Op: OpBrIf, A: in.A, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedLoadALU:
		return []Instr{
			{Op: FusedMemVariant(in.B), A: in.A, B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))},
			num(FusedMemALU(in.B)),
		}
	case OpFusedALULoad:
		return []Instr{
			num(FusedMemALU(in.B)),
			{Op: FusedMemVariant(in.B), A: in.A, B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))},
		}
	case OpFusedALUStore:
		return []Instr{
			num(FusedMemALU(in.B)),
			{Op: FusedMemVariant(in.B), A: in.A, B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))},
		}
	case OpFusedConstALUALU:
		return []Instr{
			{Op: OpConst, A: in.A},
			num(wasm.Opcode(in.B & 0xFF)),
			num(wasm.Opcode((in.B >> 8) & 0xFF)),
		}
	case OpFusedGetALUGetALU:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 32},
			num(wasm.Opcode(in.B & 0xFF)),
			{Op: OpLocalGet, A: uint64(uint32(in.A))},
			num(wasm.Opcode((in.B >> 8) & 0xFF)),
		}
	case OpFusedGetGetCmpEqzBr:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 32},
			{Op: OpLocalGet, A: uint64(uint32(in.A))},
			num(wasm.Opcode(FusedBranchAux(in.B))),
			num(wasm.OpI32Eqz),
			{Op: OpBrIf, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedIncBr:
		x := FusedBranchAux(in.B)
		return []Instr{
			{Op: OpLocalGet, A: x},
			{Op: OpConst, A: in.A >> 8},
			num(wasm.Opcode(in.A & 0xFF)),
			{Op: OpLocalSet, A: x},
			{Op: OpBr, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedGet4:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 48},
			{Op: OpLocalGet, A: (in.A >> 32) & 0xFFFF},
			{Op: OpLocalGet, A: (in.A >> 16) & 0xFFFF},
			{Op: OpLocalGet, A: in.A & 0xFFFF},
		}
	case OpFusedGet3ALUGetALU:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 48},
			{Op: OpLocalGet, A: (in.A >> 32) & 0xFFFF},
			{Op: OpLocalGet, A: (in.A >> 16) & 0xFFFF},
			num(wasm.Opcode(in.B & 0xFF)),
			{Op: OpLocalGet, A: in.A & 0xFFFF},
			num(wasm.Opcode((in.B >> 8) & 0xFF)),
		}
	case OpFusedConstALUALULoadALU:
		return []Instr{
			{Op: OpConst, A: in.A >> 32},
			num(wasm.Opcode((in.B >> 32) & 0xFF)),
			num(wasm.Opcode((in.B >> 40) & 0xFF)),
			{Op: FusedMemVariant(in.B), A: uint64(uint32(in.A)),
				B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))},
			num(FusedMemALU(in.B)),
		}
	case OpFusedALUSetIncBr:
		y := (in.A >> 16) & 0xFFFF
		return []Instr{
			num(wasm.Opcode(in.A >> 48)),
			{Op: OpLocalSet, A: (in.A >> 32) & 0xFFFF},
			{Op: OpLocalGet, A: y},
			{Op: OpConst, A: (in.A >> 8) & 0xFF},
			num(wasm.Opcode(in.A & 0xFF)),
			{Op: OpLocalSet, A: y},
			{Op: OpBr, B: uint64(FusedBranchTarget(in.B))},
		}
	case OpFusedIdx1Load, OpFusedIdx1LoadF64Mul, OpFusedIdx2Load, OpFusedIdx2LoadF64Mul,
		OpFusedIdx3LoadF64Mul, OpFusedIdx1LoadF64Add, OpFusedIdx1KLoad, OpFusedIdx1KLoadF64Add,
		OpFusedIdx1:
		get := func(shift uint) Instr { return Instr{Op: OpLocalGet, A: (in.A >> shift) & 0xFFFF} }
		var seq []Instr
		switch in.Op {
		case OpFusedIdx2Load, OpFusedIdx2LoadF64Mul:
			seq = []Instr{get(48), get(32), get(16), num(wasm.OpI64Mul), get(0), num(wasm.OpI64Add)}
		case OpFusedIdx3LoadF64Mul:
			seq = []Instr{get(48), get(32), get(16), num(wasm.OpI64Mul)}
		case OpFusedIdx1KLoad, OpFusedIdx1KLoadF64Add:
			seq = []Instr{get(48), get(32), {Op: OpConst, A: uint64(uint32(in.A))},
				num(wasm.OpI64ExtendI32S), num(FusedMemALU(in.B))}
		default:
			seq = []Instr{get(48), get(32)}
		}
		seq = append(seq, Instr{Op: OpConst, A: IdxScale(in.B)}, num(wasm.OpI64Mul), num(wasm.OpI64Add))
		if in.Op == OpFusedIdx1 {
			return seq
		}
		seq = append(seq, Instr{Op: FusedMemVariant(in.B), A: IdxOffset(in.B),
			B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))})
		switch in.Op {
		case OpFusedIdx1LoadF64Mul, OpFusedIdx2LoadF64Mul, OpFusedIdx3LoadF64Mul:
			seq = append(seq, num(wasm.OpF64Mul))
		case OpFusedIdx1LoadF64Add, OpFusedIdx1KLoadF64Add:
			seq = append(seq, num(wasm.OpF64Add))
		}
		return seq
	case OpFusedGetGetKI64LtSEqzBr:
		return []Instr{
			{Op: OpLocalGet, A: in.A >> 48},
			{Op: OpLocalGet, A: (in.A >> 32) & 0xFFFF},
			{Op: OpConst, A: uint64(uint32(in.A))},
			num(wasm.OpI64ExtendI32S),
			num(wasm.Opcode(FusedBranchAux(in.B))),
			num(wasm.OpI64LtS),
			num(wasm.OpI32Eqz),
			{Op: OpBrIf, B: uint64(FusedBranchTarget(in.B))},
		}
	}
	return nil
}

// Mode is the address-translation strategy a program was lowered for.
// It mirrors the exec package's sandboxing strategies; the lowered
// memory opcodes bake the mode in so dispatch never re-derives it.
type Mode int

// Address-translation modes.
const (
	// ModeGuard32 is 32-bit wasm with virtual-memory guard pages.
	ModeGuard32 Mode = iota
	// ModeBounds64 is wasm64 with explicit software bounds checks.
	ModeBounds64
	// ModeMTE64 is Cage's MTE-based sandboxing.
	ModeMTE64
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGuard32:
		return "guard32"
	case ModeBounds64:
		return "bounds64"
	case ModeMTE64:
		return "mte64"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config selects the specialization a module is lowered under. It is
// derived from the instance configuration (core.Features plus the
// module's memory kind) by the exec layer, and is part of the cache key
// for lowered programs: two configs that differ in any field produce
// distinct instruction streams.
type Config struct {
	// Mode is the address-translation strategy.
	Mode Mode
	// SkipBounds drops software checks (the CVE-2023-26489-style buggy
	// lowering of paper §3), selecting the NC opcode variants.
	SkipBounds bool
	// MemSafety adds MTE tag checks to Bounds64 accesses.
	MemSafety bool
	// PtrAuth enables i64.pointer_sign/auth; off lowers them to the
	// event-only Nop variants.
	PtrAuth bool
	// Harden inserts OpFence speculation barriers before indirect
	// branches and returns (the Swivel-style hardened preset). Purely a
	// timing-model change: the lowered semantics are unaffected.
	Harden bool
	// Guard selects the guard-region opcode variants for ModeGuard32
	// accesses whose offset fits GuardMaxOffset: the executor backs the
	// linear memory with an mmap reservation (internal/vmem) whose tail
	// is PROT_NONE, so the MMU performs the bounds check. Set only when
	// the platform and kernel provide the backing (vmem.Supported); it
	// is part of the cache identity like every other field, so guard and
	// non-guard programs never mix.
	Guard bool
}

// Func is one lowered function body.
//
// Frame layout: one activation of the function occupies FrameSize
// contiguous value slots in the executor's arena —
//
//	slot [0, NumParams)                      parameters
//	slot [NumParams, NumParams+NumLocals)    declared locals
//	slot [StackBase(), FrameSize)            operand stack (MaxStack deep)
//
// Local index i (the immediate of OpLocalGet/Set/Tee) is frame-relative
// slot i, so a caller's operand-stack top can become the callee's
// parameter slots in place: the frame machine opens the callee frame at
// the caller's stack top minus the argument count, with no copy.
type Func struct {
	// NumParams/NumResults mirror the function signature; NumLocals is
	// the count of declared (non-parameter) locals.
	NumParams  int
	NumResults int
	NumLocals  int
	// MaxStack is the operand-stack high-water mark, precomputed so the
	// executor can size the frame once, exactly.
	MaxStack int
	// FrameSize is the total number of contiguous arena slots one
	// activation needs: NumParams + NumLocals + MaxStack. Computed at
	// lower time; the frame machine's exact arena bound is a sum of
	// these.
	FrameSize int
	// Code is the flat lowered instruction stream. Every function ends
	// with OpRetEnd; branch targets are absolute indices into Code.
	Code []Instr
}

// StackBase returns the frame-relative slot where the operand stack
// begins: the first slot past the parameters and declared locals.
func (f *Func) StackBase() int { return f.NumParams + f.NumLocals }

// Program is a module lowered under one Config. Programs are immutable
// after Lower and safe to share across concurrent instances; the engine
// caches them per (module content hash, config).
type Program struct {
	Cfg   Config
	Funcs []Func
	// Fused marks a program rewritten by the superinstruction pass
	// (internal/fuse). Fused programs execute identically — the pass is
	// semantics- and event-preserving — but their PCs differ from the
	// plain lowering, so the pass refuses to run twice.
	Fused bool
	// Charges holds, for every pc, the events of the region from it
	// through the next control transfer (BuildCharges). A fused
	// program shares its lowered program's.
	Charges Charges
}

// Matches reports whether the program can execute module m under cfg —
// the compatibility check instances run before adopting a shared
// (cached) program.
func (p *Program) Matches(m *wasm.Module, cfg Config) bool {
	return p != nil && p.Cfg == cfg && len(p.Funcs) == len(m.Funcs)
}
