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

// The ALU constituents the dispatch loop's shared fusedALU block runs
// inline, as a dense kind: aluKind[op] switches by jump table, where
// the wasm opcodes themselves (spread over 0x45…0xB9) would compile to
// a compare chain. Kind 0 — every other opcode — is fusedALUSlow.
const (
	aluSlow uint8 = iota
	aluI32Add
	aluI64Add
	aluI32Mul
	aluI64Mul
	aluF64Add
	aluF64Mul
	aluI32LtS
	aluI64LtS
	aluI32Eqz
	aluI64ExtendI32S
	aluI32Sub
	aluI64Sub
	aluF64Sub
	aluF64ConvertI32S
	aluF64ConvertI64S
	numALUKinds
)

// aluKind maps a wasm numeric opcode to its inlined kind.
var aluKind = [256]uint8{
	wasm.OpI32Add:         aluI32Add,
	wasm.OpI64Add:         aluI64Add,
	wasm.OpI32Mul:         aluI32Mul,
	wasm.OpI64Mul:         aluI64Mul,
	wasm.OpF64Add:         aluF64Add,
	wasm.OpF64Mul:         aluF64Mul,
	wasm.OpI32LtS:         aluI32LtS,
	wasm.OpI64LtS:         aluI64LtS,
	wasm.OpI32Eqz:         aluI32Eqz,
	wasm.OpI64ExtendI32S:  aluI64ExtendI32S,
	wasm.OpI32Sub:         aluI32Sub,
	wasm.OpI64Sub:         aluI64Sub,
	wasm.OpF64Sub:         aluF64Sub,
	wasm.OpF64ConvertI32S: aluF64ConvertI32S,
	wasm.OpF64ConvertI64S: aluF64ConvertI64S,
}

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

// fusedMemLoad executes the load constituent of a fused
// superinstruction for every variant but the guard-region one (which
// the dispatch loop runs inline; it has no address function, the MMU is
// the check): the same per-mode address function its unfused opcode
// calls — same events, same trap — reached by one table jump over the
// eight contiguous load variants, then read and extension. The EvLoad
// charge happens at the call site, before translation, exactly like
// the unfused specialized loads.
func (inst *Instance) fusedMemLoad(in *ir.Instr, offset, idx uint64) (uint64, error) {
	sz := ir.FusedMemSize(in.B)
	var addr uint64
	var err error
	switch variant := ir.FusedMemVariant(in.B); variant {
	case ir.OpLoadG32:
		addr, err = inst.addrG32(idx, offset, sz, inst.memSize, false)
	case ir.OpLoadG32NC:
		addr, err = inst.addrG32(idx, offset, sz, uint64(len(inst.mem)), false)
	case ir.OpLoadB64:
		addr, err = inst.addrB64(idx, offset, sz, false, true, false)
	case ir.OpLoadB64NC:
		addr, err = inst.addrB64(idx, offset, sz, false, false, false)
	case ir.OpLoadB64Tag:
		addr, err = inst.addrB64(idx, offset, sz, false, true, true)
	case ir.OpLoadB64NCTag:
		addr, err = inst.addrB64(idx, offset, sz, false, false, true)
	case ir.OpLoadMTE:
		addr, err = inst.addrMTE(idx, offset, sz, false, true)
	case ir.OpLoadMTENC:
		addr, err = inst.addrMTE(idx, offset, sz, false, false)
	default:
		err = newTrap(TrapUnreachable, "fused memory op with variant %v", variant)
	}
	if err != nil {
		return 0, err
	}
	return extendLoad(ir.FusedMemOp(in.B), readScalar(inst.mem, addr, sz)), nil
}

// fusedMemStore is fusedMemLoad's twin for the store constituent:
// per-variant address translation (which also marks the dirty pages),
// write. The EvStore charge happens at the call site, before
// translation.
func (inst *Instance) fusedMemStore(in *ir.Instr, idx, val uint64) error {
	sz := ir.FusedMemSize(in.B)
	var addr uint64
	var err error
	switch variant := ir.FusedMemVariant(in.B); variant {
	case ir.OpStoreG32:
		addr, err = inst.addrG32(idx, in.A, sz, inst.memSize, true)
	case ir.OpStoreG32NC:
		addr, err = inst.addrG32(idx, in.A, sz, uint64(len(inst.mem)), true)
	case ir.OpStoreB64:
		addr, err = inst.addrB64(idx, in.A, sz, true, true, false)
	case ir.OpStoreB64NC:
		addr, err = inst.addrB64(idx, in.A, sz, true, false, false)
	case ir.OpStoreB64Tag:
		addr, err = inst.addrB64(idx, in.A, sz, true, true, true)
	case ir.OpStoreB64NCTag:
		addr, err = inst.addrB64(idx, in.A, sz, true, false, true)
	case ir.OpStoreMTE:
		addr, err = inst.addrMTE(idx, in.A, sz, true, true)
	case ir.OpStoreMTENC:
		addr, err = inst.addrMTE(idx, in.A, sz, true, false)
	default:
		err = newTrap(TrapUnreachable, "fused memory op with variant %v", variant)
	}
	if err != nil {
		return err
	}
	writeScalar(inst.mem, addr, sz, val)
	return nil
}
