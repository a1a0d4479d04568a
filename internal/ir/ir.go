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

// Fused superinstructions, one row each in form.go's tables, which
// define their constituents and immediates. The shapes carry their ALU
// opcodes as immediates; the indexed loads and the idioms name theirs
// and close the block.
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

	// Indexed loads (address = b + (i[·n][+j] | i±k)·c, form.go), the
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

	// Idioms: shapes with their ALU ops named, in order of dynamic share
	// over the polybench kernels. A new fused op is appended inside the
	// block, so the dispatch switch stays a jump table.
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

// Constant expressions that stop compiling when the enumerated block
// reaches the numerics or a named opcode outgrows PackFusedMem's 8-bit
// variant field.
const (
	_ = uint(OpNumericBase - endFusedOps)
	_ = uint(0xFF - (numNamedOps - 1))
)

// IsFused reports whether op is a fused superinstruction.
func (op Op) IsFused() bool { return op >= OpFusedBase && op < endFusedOps }

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
// The indexed rows give scale and offset 16 bits each (form.go).
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
}

// String returns the lowered mnemonic.
func (op Op) String() string {
	if op.IsNumeric() {
		return op.Wasm().String()
	}
	if f := op.form(); f != nil {
		return f.name
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
	}
	if f := in.Op.form(); f != nil {
		return f.describe(&in)
	}
	if in.Op.IsLoad() || in.Op.IsStore() {
		return fmt.Sprintf("%s offset=%d size=%d (%s)",
			in.Op, in.A, MemSize(in.B), MemOp(in.B))
	}
	return in.Op.String()
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
