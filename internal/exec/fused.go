package exec

import (
	"math"

	"cage/internal/arch"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// This file holds the out-of-line halves of the fused-superinstruction
// handlers (frame.go): the cold tail of the ALU constituent executor
// (the hottest ops run in the dispatch loop's shared fusedALU block)
// and the variant-dispatched memory constituents (the guard-region
// variant is likewise inlined in the loop). Everything here mirrors an
// existing unfused path op-for-op and event-for-event — fusedALUSlow is
// the dispatch loop's inlined hot switch plus the shared numeric
// fallback, and the memory helpers call the same per-mode address
// functions the specialized load/store opcodes call — which is what
// makes the fusion pass semantics- and event-preserving by
// construction.

// fusedALUSlow executes one pure-value constituent of a fused
// superinstruction against the operand stack, returning the new stack.
// The inlined cases are copied from the dispatch loop's default-case
// fast path (same ops, same events); everything else takes the shared
// numeric ALU, exactly as an unfused instruction would.
func (inst *Instance) fusedALUSlow(op wasm.Opcode, stack []uint64) ([]uint64, error) {
	ctr := inst.counter
	l := len(stack)
	switch op {
	case wasm.OpI64Add:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] += stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI64Sub:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] -= stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI64And:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] &= stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI64Or:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] |= stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI64Xor:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] ^= stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI64Shl:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] <<= stack[l-1] & 63
		return stack[:l-1], nil
	case wasm.OpI64ShrS:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(int64(stack[l-2]) >> (stack[l-1] & 63))
		return stack[:l-1], nil
	case wasm.OpI64ShrU:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] >>= stack[l-1] & 63
		return stack[:l-1], nil
	case wasm.OpI64Mul:
		ctr.Add(arch.EvMul, 1)
		stack[l-2] *= stack[l-1]
		return stack[:l-1], nil
	case wasm.OpI32Add:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) + uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Sub:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) - uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32And:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) & uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Or:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) | uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Xor:
		ctr.Add(arch.EvALU, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) ^ uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Mul:
		ctr.Add(arch.EvMul, 1)
		stack[l-2] = uint64(uint32(stack[l-2]) * uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI64LtS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int64(stack[l-2]) < int64(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI64LtU:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(stack[l-2] < stack[l-1])
		return stack[:l-1], nil
	case wasm.OpI64GtS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int64(stack[l-2]) > int64(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI64GeS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int64(stack[l-2]) >= int64(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI64LeS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int64(stack[l-2]) <= int64(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI64Eq:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(stack[l-2] == stack[l-1])
		return stack[:l-1], nil
	case wasm.OpI64Ne:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(stack[l-2] != stack[l-1])
		return stack[:l-1], nil
	case wasm.OpI64Eqz:
		ctr.Add(arch.EvCmp, 1)
		stack[l-1] = b2u(stack[l-1] == 0)
		return stack, nil
	case wasm.OpI32LtS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int32(stack[l-2]) < int32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32LtU:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(uint32(stack[l-2]) < uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32GtS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int32(stack[l-2]) > int32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32GeS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int32(stack[l-2]) >= int32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32LeS:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(int32(stack[l-2]) <= int32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Eq:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(uint32(stack[l-2]) == uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Ne:
		ctr.Add(arch.EvCmp, 1)
		stack[l-2] = b2u(uint32(stack[l-2]) != uint32(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpI32Eqz:
		ctr.Add(arch.EvCmp, 1)
		stack[l-1] = b2u(uint32(stack[l-1]) == 0)
		return stack, nil
	case wasm.OpI32WrapI64:
		ctr.Add(arch.EvConv, 1)
		stack[l-1] = uint64(uint32(stack[l-1]))
		return stack, nil
	case wasm.OpI64ExtendI32S:
		ctr.Add(arch.EvConv, 1)
		stack[l-1] = uint64(int64(int32(stack[l-1])))
		return stack, nil
	case wasm.OpI64ExtendI32U:
		ctr.Add(arch.EvConv, 1)
		stack[l-1] = uint64(uint32(stack[l-1]))
		return stack, nil
	case wasm.OpF64ConvertI64S:
		ctr.Add(arch.EvConv, 1)
		stack[l-1] = math.Float64bits(float64(int64(stack[l-1])))
		return stack, nil
	case wasm.OpF64ConvertI32S:
		ctr.Add(arch.EvConv, 1)
		stack[l-1] = math.Float64bits(float64(int32(stack[l-1])))
		return stack, nil
	case wasm.OpF64Add:
		ctr.Add(arch.EvFAdd, 1)
		stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) + math.Float64frombits(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpF64Sub:
		ctr.Add(arch.EvFAdd, 1)
		stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) - math.Float64frombits(stack[l-1]))
		return stack[:l-1], nil
	case wasm.OpF64Mul:
		ctr.Add(arch.EvFMul, 1)
		stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) * math.Float64frombits(stack[l-1]))
		return stack[:l-1], nil
	default:
		n, err := inst.numeric(op, stack, l)
		if err != nil {
			return stack, err
		}
		return stack[:n], nil
	}
}

// fusedMemAddr translates a fused memory constituent's guest index
// through the same per-mode address function its unfused opcode uses —
// same events, same trap — for every specialized variant except the
// guard-region one, which the dispatch loop handles inline (it has no
// address function; the MMU is the check).
func (inst *Instance) fusedMemAddr(variant ir.Op, idx, offset, sz uint64) (uint64, error) {
	switch variant {
	case ir.OpLoadG32, ir.OpStoreG32:
		return inst.addrG32(idx, offset, sz, inst.memSize, variant == ir.OpStoreG32)
	case ir.OpLoadG32NC, ir.OpStoreG32NC:
		return inst.addrG32(idx, offset, sz, uint64(len(inst.mem)), variant == ir.OpStoreG32NC)
	case ir.OpLoadB64:
		return inst.addrB64(idx, offset, sz, false, true, false)
	case ir.OpLoadB64NC:
		return inst.addrB64(idx, offset, sz, false, false, false)
	case ir.OpLoadB64Tag:
		return inst.addrB64(idx, offset, sz, false, true, true)
	case ir.OpLoadB64NCTag:
		return inst.addrB64(idx, offset, sz, false, false, true)
	case ir.OpLoadMTE:
		return inst.addrMTE(idx, offset, sz, false, true)
	case ir.OpLoadMTENC:
		return inst.addrMTE(idx, offset, sz, false, false)
	case ir.OpStoreB64:
		return inst.addrB64(idx, offset, sz, true, true, false)
	case ir.OpStoreB64NC:
		return inst.addrB64(idx, offset, sz, true, false, false)
	case ir.OpStoreB64Tag:
		return inst.addrB64(idx, offset, sz, true, true, true)
	case ir.OpStoreB64NCTag:
		return inst.addrB64(idx, offset, sz, true, false, true)
	case ir.OpStoreMTE:
		return inst.addrMTE(idx, offset, sz, true, true)
	case ir.OpStoreMTENC:
		return inst.addrMTE(idx, offset, sz, true, false)
	}
	return 0, newTrap(TrapUnreachable, "fused memory op with variant %v", variant)
}

// fusedMemLoad executes the load constituent of a fused
// superinstruction for every variant but the guard-region one (which
// the dispatch loop runs inline): per-variant address translation,
// read, extension. The EvLoad charge happens at the call site, before
// translation, exactly like the unfused specialized loads.
func (inst *Instance) fusedMemLoad(in *ir.Instr, offset, idx uint64) (uint64, error) {
	sz := ir.FusedMemSize(in.B)
	addr, err := inst.fusedMemAddr(ir.FusedMemVariant(in.B), idx, offset, sz)
	if err != nil {
		return 0, err
	}
	return extendLoad(ir.FusedMemOp(in.B), readScalarFast(inst.mem, addr, sz)), nil
}

// fusedMemStore executes the store constituent of a fused
// superinstruction for every variant but the guard-region one (inlined
// in the dispatch loop): per-variant address translation, write. The
// EvStore charge happens at the call site, before translation.
func (inst *Instance) fusedMemStore(in *ir.Instr, idx, val uint64) error {
	sz := ir.FusedMemSize(in.B)
	addr, err := inst.fusedMemAddr(ir.FusedMemVariant(in.B), idx, in.A, sz)
	if err != nil {
		return err
	}
	writeScalarFast(inst.mem, addr, sz, val)
	return nil
}
