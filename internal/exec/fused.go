package exec

import (
	"cage/internal/arch"
	"cage/internal/ir"
)

// This file holds what the dispatch loop (frame.go) keeps outside
// itself: the out-of-line half of its load and store blocks, which
// every access the blocks do not open-code takes, and the cold path of
// a trap. The memory helpers call the same per-mode address functions
// whatever the opcode, and a fused ALU constituent runs in the same
// fusedALU block as an unfused numeric instruction — one switch on the
// wasm opcode, one numeric fallback — which is what makes the fusion
// pass semantics-preserving by construction. Events are the program's
// (ir.BuildCharges): a fused instruction's are its constituents',
// charged with its region's.

// fusedMemLoad is the dispatch loop's out-of-line load, for every
// access its load block does not open-code: the variant's address
// function — same events, same trap — reached by one table jump over
// the nine contiguous load variants, then read and extension. b is the
// memory pack (PackFusedMem). The guard-region variant has no address
// function: the MMU is the check (see OpLoadG32G).
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
// write.
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

// trapped is the cold path of a trap inside a straight-line region:
// run counted an entry into the whole region, so when part k of
// code[pc] traps with err, trapped drains the counts, takes back from
// the counter what the trap kept from running and returns err. Part k
// itself has charged all its events but one case: a *Tag access that
// is out of bounds traps before its tag check.
func (inst *Instance) trapped(code []ir.Instr, pc, k int, err error) error {
	ctr := inst.counter
	inst.drain()
	left := inst.prog.Unrun(&code[pc], k)
	for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
		ctr.Sub(ev, left.Get(ev))
	}
	if t, ok := err.(*Trap); ok && t.Code == TrapOutOfBounds {
		for _, ev := range code[pc].Parts()[k].Op.Events() {
			if ev == arch.EvTagCheckLoad || ev == arch.EvTagCheckStore {
				ctr.Sub(ev, 1)
			}
		}
	}
	return err
}

// memConstituent returns the index of in's load or store among its
// parts.
func memConstituent(in *ir.Instr) int {
	for i, c := range in.Parts() {
		if c.Op.IsLoad() || c.Op.IsStore() {
			return i
		}
	}
	return 0
}

// aluConstituent returns the index among in's parts of the ALU the
// fusedALU block was running while aluNext still held ALUs to run: the
// one with that many ALU constituents after it. The i32.eqz of the
// cmp+eqz+branch shapes runs in their tail, never in the block, so it
// does not count.
func aluConstituent(in *ir.Instr, aluNext uint32) int {
	var alus []int
	for i, c := range in.Parts() {
		if c.Op.IsNumeric() {
			alus = append(alus, i)
		}
	}
	if in.Op == ir.OpFusedCmpEqzBrIf || in.Op == ir.OpFusedGetGetCmpEqzBr {
		alus = alus[:len(alus)-1]
	}
	pending := 0
	for ; aluNext != 0; aluNext >>= 8 {
		pending++
	}
	return alus[len(alus)-1-pending]
}
