package exec

import (
	"cage/internal/ir"
	"cage/internal/wasm"
)

// This file holds what the dispatch loop (frame.go) keeps outside
// itself: the dense key of the shared fusedALU block and the
// out-of-line half of its load and store blocks, which every access
// the blocks do not open-code takes. The memory helpers call the same
// per-mode address functions whatever the opcode, and an ALU
// constituent the fusedALU block does not inline takes the shared
// numeric ALU exactly as an unfused instruction would — which is what
// makes the fusion pass semantics- and event-preserving by
// construction.

// The ALU constituents the dispatch loop's shared fusedALU block runs
// inline, as a dense kind: aluKind[op] switches by jump table, where
// the wasm opcodes themselves (spread over 0x45…0xB9) would compile to
// a compare chain. Kind 0 — every other opcode — is inst.numeric.
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

// fusedMemLoad is the dispatch loop's out-of-line load, for every
// access its load block does not open-code: the variant's address
// function — same events, same trap — reached by one table jump over
// the nine contiguous load variants, then read and extension. b is the
// memory pack (PackFusedMem). The guard-region variant has no address
// function: the MMU is the check (see OpLoadG32G). The EvLoad charge
// happens before the load block, exactly like the unfused load's.
func (inst *Instance) fusedMemLoad(b, offset, idx uint64) (uint64, error) {
	sz := ir.FusedMemSize(b)
	mem := inst.mem
	var addr uint64
	var err error
	switch variant := ir.FusedMemVariant(b); variant {
	case ir.OpLoadG32G:
		addr, mem = uint64(uint32(idx))+offset, inst.gmem
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
	return extendLoad(ir.FusedMemOp(b), readScalar(mem, addr, sz)), nil
}

// fusedMemStore is fusedMemLoad's twin for the store block:
// per-variant address translation (which also marks the dirty pages),
// write. The EvStore charge happens before the store block.
func (inst *Instance) fusedMemStore(b, offset, idx, val uint64) error {
	sz := ir.FusedMemSize(b)
	mem := inst.mem
	var addr uint64
	var err error
	switch variant := ir.FusedMemVariant(b); variant {
	case ir.OpStoreG32G:
		// The probe read of the last byte faults before anything is
		// written; see the store block.
		addr, mem = uint64(uint32(idx))+offset, inst.gmem
		guardProbeSink = mem[addr+sz-1]
		inst.dirty.mark(addr, sz)
	case ir.OpStoreG32:
		addr, err = inst.addrG32(idx, offset, sz, inst.memSize, true)
	case ir.OpStoreG32NC:
		addr, err = inst.addrG32(idx, offset, sz, uint64(len(inst.mem)), true)
	case ir.OpStoreB64:
		addr, err = inst.addrB64(idx, offset, sz, true, true, false)
	case ir.OpStoreB64NC:
		addr, err = inst.addrB64(idx, offset, sz, true, false, false)
	case ir.OpStoreB64Tag:
		addr, err = inst.addrB64(idx, offset, sz, true, true, true)
	case ir.OpStoreB64NCTag:
		addr, err = inst.addrB64(idx, offset, sz, true, false, true)
	case ir.OpStoreMTE:
		addr, err = inst.addrMTE(idx, offset, sz, true, true)
	case ir.OpStoreMTENC:
		addr, err = inst.addrMTE(idx, offset, sz, true, false)
	default:
		err = newTrap(TrapUnreachable, "fused memory op with variant %v", variant)
	}
	if err != nil {
		return err
	}
	writeScalar(mem, addr, sz, val)
	return nil
}
