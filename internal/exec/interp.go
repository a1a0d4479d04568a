package exec

import (
	"encoding/binary"
	"math"
	"math/bits"

	"cage/internal/arch"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// This file holds the opcode semantics shared by the frame machine
// (frame.go) and the test-only legacy oracle (legacy_oracle_test.go):
// address translation per sandboxing strategy, scalar memory access, bulk
// memory operations, Cage segment instructions, and the numeric ALU.
// The stack-consuming helpers take the operand stack as a value slice
// and return its new height, so callers that keep the stack in the
// contiguous value arena (the frame machine) and callers that keep a
// private slice (the oracle) share one implementation.

// addrG32 is the wasm32 guard-page strategy: 4 GiB reservation + guard
// pages; no per-access cost. The Go-level check stands in for the MMU.
// limit is the guest size normally, the whole host mapping when the
// bounds lowering is (deliberately) buggy. Like every address function
// below, a write marks the pages it resolves to in the dirty set.
func (inst *Instance) addrG32(idx, offset, size, limit uint64, write bool) (uint64, error) {
	addr := uint64(uint32(idx)) + offset
	if addr+size > limit || addr+size < addr {
		return 0, newTrap(TrapOutOfBounds, "address 0x%x+%d (guard page)", addr, size)
	}
	if write {
		inst.dirty.mark(addr, size)
	}
	return addr, nil
}

// addrB64 is the wasm64 software strategy: an explicit bounds check
// (skipped by the buggy-lowering demo, which then only faults at the
// host mapping), plus the MTE memory-safety tag check when enabled.
func (inst *Instance) addrB64(idx, offset, size uint64, write, check, tagCheck bool) (uint64, error) {
	ctr := inst.counter
	full := idx + offset
	tag := ptrlayout.Tag(full)
	addr := ptrlayout.Address(ptrlayout.StripTag(full))
	if check {
		ctr.Add(arch.EvBoundsCheck, 1)
		if addr+size > inst.memSize || addr+size < addr {
			return 0, newTrap(TrapOutOfBounds, "address 0x%x+%d >= 0x%x", addr, size, inst.memSize)
		}
	} else if addr+size > uint64(len(inst.mem)) || addr+size < addr {
		return 0, newTrap(TrapOutOfBounds, "address 0x%x+%d (host fault)", addr, size)
	}
	if tagCheck {
		if write {
			ctr.Add(arch.EvTagCheckStore, 1)
		} else {
			ctr.Add(arch.EvTagCheckLoad, 1)
		}
		if !inst.tags.Allows(addr, size, tag) {
			if err := inst.tags.CheckAccess(addr, size, tag, write); err != nil {
				return 0, newTrap(TrapTagMismatch, "%v", err)
			}
		}
	}
	if write {
		inst.dirty.mark(addr, size)
	}
	return addr, nil
}

// addrMTE is Cage's MTE-based sandboxing (Fig. 12b / Fig. 13): mask the
// untrusted index (unless the demo drops the mask), add the tagged heap
// base, and let the tag check catch any escape.
func (inst *Instance) addrMTE(idx, offset, size uint64, write, mask bool) (uint64, error) {
	ctr := inst.counter
	masked := idx
	if mask {
		ctr.Add(arch.EvMask, 1)
		masked = inst.policy.MaskIndex(idx)
	}
	full := inst.heapBase + masked + offset
	tag := ptrlayout.Tag(full)
	addr := ptrlayout.Address(ptrlayout.StripTag(full))
	if write {
		ctr.Add(arch.EvTagCheckStore, 1)
	} else {
		ctr.Add(arch.EvTagCheckLoad, 1)
	}
	// Addresses beyond the mapped region belong to the runtime: the
	// tag memory reports tag 0 there, so the check below faults.
	if addr+size > uint64(len(inst.mem)) || addr+size < addr {
		return 0, newTrap(TrapTagMismatch,
			"sandbox violation: address 0x%x outside mapped memory (runtime tag 0, pointer tag %#x)", addr, tag)
	}
	if !inst.tags.Allows(addr, size, tag) {
		if err := inst.tags.CheckAccess(addr, size, tag, write); err != nil {
			return 0, newTrap(TrapTagMismatch, "%v", err)
		}
	}
	if write {
		inst.dirty.mark(addr, size)
	}
	return addr, nil
}

// effectiveAddr applies the instance's sandboxing strategy to a guest
// index and access size, returning the in-bounds physical offset. It is
// the un-specialized path used by bulk/host operations (memory.fill,
// memory.copy, the hardened allocator); guest loads and stores run the
// specialized lowered opcodes instead, which call the same per-mode
// helpers, so the semantics cannot drift apart.
func (inst *Instance) effectiveAddr(idx, offset, size uint64, write bool) (uint64, error) {
	switch inst.strategy {
	case stratGuard32:
		limit := inst.memSize
		if inst.skipBounds {
			limit = uint64(len(inst.mem)) // buggy lowering reaches host data
		}
		return inst.addrG32(idx, offset, size, limit, write)
	case stratBounds64:
		return inst.addrB64(idx, offset, size, write, !inst.skipBounds, inst.features.MemSafety)
	default: // stratMTE64, Fig. 12b / Fig. 13
		return inst.addrMTE(idx, offset, size, write, !inst.skipBounds)
	}
}

// readScalar reads a little-endian scalar of the given width (1, 2, 4
// or 8 bytes) as one whole-width access. The address functions have
// already bounds-checked the range; the test-only oracle keeps its own
// byte loops (legacy_oracle_test.go) as the independent reference.
func readScalar(mem []byte, addr, size uint64) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(mem[addr:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(mem[addr:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(mem[addr:]))
	default:
		return uint64(mem[addr])
	}
}

// writeScalar writes a little-endian scalar of the given width as one
// whole-width access; see readScalar.
func writeScalar(mem []byte, addr, size, val uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(mem[addr:], val)
	case 4:
		binary.LittleEndian.PutUint32(mem[addr:], uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(mem[addr:], uint16(val))
	default:
		mem[addr] = byte(val)
	}
}

// extendLoad applies a load opcode's sign/zero extension to raw bytes.
func extendLoad(op wasm.Opcode, raw uint64) uint64 {
	switch op {
	case wasm.OpI32Load8S:
		return uint64(uint32(int32(int8(raw))))
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return raw & 0xFF
	case wasm.OpI32Load16S:
		return uint64(uint32(int32(int16(raw))))
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return raw & 0xFFFF
	case wasm.OpI64Load8S:
		return uint64(int64(int8(raw)))
	case wasm.OpI64Load16S:
		return uint64(int64(int16(raw)))
	case wasm.OpI64Load32S:
		return uint64(int64(int32(raw)))
	default:
		// Full-width and unsigned 32-bit loads: the raw bits.
		return raw
	}
}

// memoryGrow grows the guest memory by delta pages, returning the old
// page count or ^0 on failure.
func (inst *Instance) memoryGrow(deltaPages uint64) uint64 {
	oldPages := inst.memSize / wasm.PageSize
	newPages := oldPages + deltaPages
	if newPages < oldPages {
		// Guest-controlled 64-bit delta wrapped the page count; a wrap
		// would bypass every cap below and shrink memory.
		return ^uint64(0)
	}
	if inst.memType.Limits.HasMax && newPages > inst.memType.Limits.Max {
		return ^uint64(0)
	}
	if deltaPages == 0 {
		// The size-query idiom always succeeds, per wasm semantics, even
		// under a per-call cap below the current size, and changes nothing.
		return oldPages
	}
	if inst.memLimitPages != 0 && newPages > inst.memLimitPages {
		// Per-call cap (CallOptions.MemoryLimitPages): fail the grow the
		// same way an exceeded declared maximum does.
		return ^uint64(0)
	}
	if newPages > 1<<32 { // 256 TiB cap to keep the simulation sane
		return ^uint64(0)
	}
	oldSize, newSize := inst.memSize, newPages*wasm.PageSize
	if !inst.growStorage(newSize) {
		return ^uint64(0)
	}
	if inst.tags != nil && inst.features.Sandbox {
		// New pages join the sandbox.
		if err := inst.tags.SetTagRange(oldSize, newSize-oldSize, inst.sandbox); err == nil {
			inst.counter.Add(arch.EvSTGGranule, (newSize-oldSize)/mte.GranuleSize)
		}
	}
	return oldPages
}

// memoryFill pops (dst, val, n) off the operand stack s and fills guest
// memory; it returns the stack's new height.
func (inst *Instance) memoryFill(s []uint64) (int, error) {
	n := s[len(s)-1]
	val := byte(s[len(s)-2])
	dst := s[len(s)-3]
	h := len(s) - 3
	if n == 0 {
		return h, nil
	}
	// Streamed as 8-byte stores for cost purposes.
	inst.counter.Add(arch.EvStore, (n+7)/8)
	addr, err := inst.effectiveAddr(dst, 0, n, true)
	if err != nil {
		return h, err
	}
	for i := uint64(0); i < n; i++ {
		inst.mem[addr+i] = val
	}
	return h, nil
}

// memoryCopy pops (dst, src, n) off the operand stack s and copies guest
// memory; it returns the stack's new height.
func (inst *Instance) memoryCopy(s []uint64) (int, error) {
	n := s[len(s)-1]
	src := s[len(s)-2]
	dst := s[len(s)-3]
	h := len(s) - 3
	if n == 0 {
		return h, nil
	}
	inst.counter.Add(arch.EvLoad, (n+7)/8)
	inst.counter.Add(arch.EvStore, (n+7)/8)
	srcAddr, err := inst.effectiveAddr(src, 0, n, false)
	if err != nil {
		return h, err
	}
	dstAddr, err := inst.effectiveAddr(dst, 0, n, true)
	if err != nil {
		return h, err
	}
	copy(inst.mem[dstAddr:dstAddr+n], inst.mem[srcAddr:srcAddr+n])
	return h, nil
}

// Segment instruction implementations. Without the memory-safety
// feature they degrade gracefully: segment.new returns its pointer
// unchanged and the others are no-ops, matching Cage's software-fallback
// deployment model (paper §4.1).

// guestTag translates a guest pointer's tag nibble into the physical
// tag under the combined internal+external split (Fig. 13b): the guest
// never controls the sandbox bit, so bit 56 is replaced by the
// instance's sandbox identity. Outside combined mode it is the identity.
func (inst *Instance) guestTag(ptr uint64) uint64 {
	if inst.strategy == stratMTE64 && inst.features.MemSafety {
		t := (ptrlayout.Tag(ptr) &^ 1) | inst.sandbox
		return ptrlayout.WithTag(ptr, t)
	}
	return ptr
}

func (inst *Instance) segmentNew(ptr, length, offset uint64) (uint64, error) {
	if !inst.features.MemSafety {
		return ptr + offset, nil
	}
	inst.counter.Add(arch.EvIRG, 1)
	before := inst.segs.GranulesTagged
	tagged, err := inst.segs.New(ptr, length, offset)
	inst.counter.Add(arch.EvSTGGranule, inst.segs.GranulesTagged-before)
	if err != nil {
		return 0, newTrap(TrapSegment, "%v", err)
	}
	// segment.new zeroes the bytes and retags them.
	inst.dirty.mark(ptrlayout.Address(tagged), length)
	return tagged, nil
}

func (inst *Instance) segmentSetTag(ptr, tagged, length, offset uint64) error {
	if !inst.features.MemSafety {
		return nil
	}
	before := inst.segs.GranulesTagged
	err := inst.segs.SetTag(ptr, inst.guestTag(tagged), length, offset)
	inst.counter.Add(arch.EvSTGGranule, inst.segs.GranulesTagged-before)
	if err != nil {
		return newTrap(TrapSegment, "%v", err)
	}
	inst.dirty.mark(ptrlayout.Address(ptrlayout.StripTag(ptr))+offset, length)
	return nil
}

func (inst *Instance) segmentFree(tagged, length, offset uint64) error {
	if !inst.features.MemSafety {
		return nil
	}
	inst.counter.Add(arch.EvIRG, 1)
	before := inst.segs.GranulesTagged
	err := inst.segs.Free(inst.guestTag(tagged), length, offset)
	inst.counter.Add(arch.EvSTGGranule, inst.segs.GranulesTagged-before)
	if err != nil {
		return newTrap(TrapSegment, "%v", err)
	}
	inst.dirty.mark(ptrlayout.Address(tagged)+offset, length)
	return nil
}

// numeric executes the pure value instructions. s is the value slice
// holding the operand stack and sp the absolute index one past its top
// — the frame machine passes its arena and stack pointer directly, the
// legacy oracle its private stack and length — and the new top index is
// returned. The helpers are written against the entry top: setTop2
// writes the slot that becomes the new top after a binary op's
// single-value pop.
func (inst *Instance) numeric(op wasm.Opcode, s []uint64, sp int) (int, error) {
	ctr := inst.counter
	h := sp // top index on return

	top := func() *uint64 { return &s[sp-1] }
	pop2 := func() (uint64, uint64) {
		b := s[sp-1]
		a := s[sp-2]
		h = sp - 1
		return a, b
	}
	setTop2 := func(v uint64) { s[sp-2] = v }

	b32 := func(f func(a, b uint32) uint32) {
		ctr.Add(arch.EvALU, 1)
		a, b := pop2()
		setTop2(uint64(f(uint32(a), uint32(b))))
	}
	b64 := func(f func(a, b uint64) uint64) {
		ctr.Add(arch.EvALU, 1)
		a, b := pop2()
		setTop2(f(a, b))
	}
	cmp := func(f func(a, b uint64) bool) {
		ctr.Add(arch.EvCmp, 1)
		a, b := pop2()
		if f(a, b) {
			setTop2(1)
		} else {
			setTop2(0)
		}
	}
	f64bin := func(ev arch.Event, f func(a, b float64) float64) {
		ctr.Add(ev, 1)
		a, b := pop2()
		setTop2(math.Float64bits(f(math.Float64frombits(a), math.Float64frombits(b))))
	}
	f32bin := func(ev arch.Event, f func(a, b float32) float32) {
		ctr.Add(ev, 1)
		a, b := pop2()
		setTop2(uint64(math.Float32bits(f(
			math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))))))
	}
	f64un := func(ev arch.Event, f func(a float64) float64) {
		ctr.Add(ev, 1)
		t := top()
		*t = math.Float64bits(f(math.Float64frombits(*t)))
	}
	f32un := func(ev arch.Event, f func(a float32) float32) {
		ctr.Add(ev, 1)
		t := top()
		*t = uint64(math.Float32bits(f(math.Float32frombits(uint32(*t)))))
	}
	conv := func(f func(v uint64) uint64) {
		ctr.Add(arch.EvConv, 1)
		t := top()
		*t = f(*t)
	}

	switch op {
	// i32 compare / test.
	case wasm.OpI32Eqz:
		ctr.Add(arch.EvCmp, 1)
		t := top()
		if uint32(*t) == 0 {
			*t = 1
		} else {
			*t = 0
		}
	case wasm.OpI32Eq:
		cmp(func(a, b uint64) bool { return uint32(a) == uint32(b) })
	case wasm.OpI32Ne:
		cmp(func(a, b uint64) bool { return uint32(a) != uint32(b) })
	case wasm.OpI32LtS:
		cmp(func(a, b uint64) bool { return int32(a) < int32(b) })
	case wasm.OpI32LtU:
		cmp(func(a, b uint64) bool { return uint32(a) < uint32(b) })
	case wasm.OpI32GtS:
		cmp(func(a, b uint64) bool { return int32(a) > int32(b) })
	case wasm.OpI32GtU:
		cmp(func(a, b uint64) bool { return uint32(a) > uint32(b) })
	case wasm.OpI32LeS:
		cmp(func(a, b uint64) bool { return int32(a) <= int32(b) })
	case wasm.OpI32LeU:
		cmp(func(a, b uint64) bool { return uint32(a) <= uint32(b) })
	case wasm.OpI32GeS:
		cmp(func(a, b uint64) bool { return int32(a) >= int32(b) })
	case wasm.OpI32GeU:
		cmp(func(a, b uint64) bool { return uint32(a) >= uint32(b) })

	// i64 compare / test.
	case wasm.OpI64Eqz:
		ctr.Add(arch.EvCmp, 1)
		t := top()
		if *t == 0 {
			*t = 1
		} else {
			*t = 0
		}
	case wasm.OpI64Eq:
		cmp(func(a, b uint64) bool { return a == b })
	case wasm.OpI64Ne:
		cmp(func(a, b uint64) bool { return a != b })
	case wasm.OpI64LtS:
		cmp(func(a, b uint64) bool { return int64(a) < int64(b) })
	case wasm.OpI64LtU:
		cmp(func(a, b uint64) bool { return a < b })
	case wasm.OpI64GtS:
		cmp(func(a, b uint64) bool { return int64(a) > int64(b) })
	case wasm.OpI64GtU:
		cmp(func(a, b uint64) bool { return a > b })
	case wasm.OpI64LeS:
		cmp(func(a, b uint64) bool { return int64(a) <= int64(b) })
	case wasm.OpI64LeU:
		cmp(func(a, b uint64) bool { return a <= b })
	case wasm.OpI64GeS:
		cmp(func(a, b uint64) bool { return int64(a) >= int64(b) })
	case wasm.OpI64GeU:
		cmp(func(a, b uint64) bool { return a >= b })

	// f32/f64 compare.
	case wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge:
		ctr.Add(arch.EvCmp, 1)
		a, b := pop2()
		x, y := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
		var r bool
		switch op {
		case wasm.OpF32Eq:
			r = x == y
		case wasm.OpF32Ne:
			r = x != y
		case wasm.OpF32Lt:
			r = x < y
		case wasm.OpF32Gt:
			r = x > y
		case wasm.OpF32Le:
			r = x <= y
		case wasm.OpF32Ge:
			r = x >= y
		}
		if r {
			setTop2(1)
		} else {
			setTop2(0)
		}
	case wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge:
		ctr.Add(arch.EvCmp, 1)
		a, b := pop2()
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var r bool
		switch op {
		case wasm.OpF64Eq:
			r = x == y
		case wasm.OpF64Ne:
			r = x != y
		case wasm.OpF64Lt:
			r = x < y
		case wasm.OpF64Gt:
			r = x > y
		case wasm.OpF64Le:
			r = x <= y
		case wasm.OpF64Ge:
			r = x >= y
		}
		if r {
			setTop2(1)
		} else {
			setTop2(0)
		}

	// i32 arithmetic.
	case wasm.OpI32Clz:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.LeadingZeros32(uint32(*t)))
	case wasm.OpI32Ctz:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.TrailingZeros32(uint32(*t)))
	case wasm.OpI32Popcnt:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.OnesCount32(uint32(*t)))
	case wasm.OpI32Add:
		b32(func(a, b uint32) uint32 { return a + b })
	case wasm.OpI32Sub:
		b32(func(a, b uint32) uint32 { return a - b })
	case wasm.OpI32Mul:
		ctr.Add(arch.EvMul, 1)
		a, b := pop2()
		setTop2(uint64(uint32(a) * uint32(b)))
	case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU:
		ctr.Add(arch.EvDivInt, 1)
		a, b := pop2()
		if uint32(b) == 0 {
			return h, newTrap(TrapDivByZero, "%v", op)
		}
		switch op {
		case wasm.OpI32DivS:
			if int32(a) == math.MinInt32 && int32(b) == -1 {
				return h, newTrap(TrapIntOverflow, "i32.div_s overflow")
			}
			setTop2(uint64(uint32(int32(a) / int32(b))))
		case wasm.OpI32DivU:
			setTop2(uint64(uint32(a) / uint32(b)))
		case wasm.OpI32RemS:
			if int32(a) == math.MinInt32 && int32(b) == -1 {
				setTop2(0)
			} else {
				setTop2(uint64(uint32(int32(a) % int32(b))))
			}
		case wasm.OpI32RemU:
			setTop2(uint64(uint32(a) % uint32(b)))
		}
	case wasm.OpI32And:
		b32(func(a, b uint32) uint32 { return a & b })
	case wasm.OpI32Or:
		b32(func(a, b uint32) uint32 { return a | b })
	case wasm.OpI32Xor:
		b32(func(a, b uint32) uint32 { return a ^ b })
	case wasm.OpI32Shl:
		b32(func(a, b uint32) uint32 { return a << (b & 31) })
	case wasm.OpI32ShrS:
		b32(func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) })
	case wasm.OpI32ShrU:
		b32(func(a, b uint32) uint32 { return a >> (b & 31) })
	case wasm.OpI32Rotl:
		b32(func(a, b uint32) uint32 { return bits.RotateLeft32(a, int(b&31)) })
	case wasm.OpI32Rotr:
		b32(func(a, b uint32) uint32 { return bits.RotateLeft32(a, -int(b&31)) })

	// i64 arithmetic.
	case wasm.OpI64Clz:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.LeadingZeros64(*t))
	case wasm.OpI64Ctz:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.TrailingZeros64(*t))
	case wasm.OpI64Popcnt:
		ctr.Add(arch.EvALU, 1)
		t := top()
		*t = uint64(bits.OnesCount64(*t))
	case wasm.OpI64Add:
		b64(func(a, b uint64) uint64 { return a + b })
	case wasm.OpI64Sub:
		b64(func(a, b uint64) uint64 { return a - b })
	case wasm.OpI64Mul:
		ctr.Add(arch.EvMul, 1)
		a, b := pop2()
		setTop2(a * b)
	case wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU:
		ctr.Add(arch.EvDivInt, 1)
		a, b := pop2()
		if b == 0 {
			return h, newTrap(TrapDivByZero, "%v", op)
		}
		switch op {
		case wasm.OpI64DivS:
			if int64(a) == math.MinInt64 && int64(b) == -1 {
				return h, newTrap(TrapIntOverflow, "i64.div_s overflow")
			}
			setTop2(uint64(int64(a) / int64(b)))
		case wasm.OpI64DivU:
			setTop2(a / b)
		case wasm.OpI64RemS:
			if int64(a) == math.MinInt64 && int64(b) == -1 {
				setTop2(0)
			} else {
				setTop2(uint64(int64(a) % int64(b)))
			}
		case wasm.OpI64RemU:
			setTop2(a % b)
		}
	case wasm.OpI64And:
		b64(func(a, b uint64) uint64 { return a & b })
	case wasm.OpI64Or:
		b64(func(a, b uint64) uint64 { return a | b })
	case wasm.OpI64Xor:
		b64(func(a, b uint64) uint64 { return a ^ b })
	case wasm.OpI64Shl:
		b64(func(a, b uint64) uint64 { return a << (b & 63) })
	case wasm.OpI64ShrS:
		b64(func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) })
	case wasm.OpI64ShrU:
		b64(func(a, b uint64) uint64 { return a >> (b & 63) })
	case wasm.OpI64Rotl:
		b64(func(a, b uint64) uint64 { return bits.RotateLeft64(a, int(b&63)) })
	case wasm.OpI64Rotr:
		b64(func(a, b uint64) uint64 { return bits.RotateLeft64(a, -int(b&63)) })

	// f32 arithmetic.
	case wasm.OpF32Abs:
		f32un(arch.EvFAdd, func(a float32) float32 { return float32(math.Abs(float64(a))) })
	case wasm.OpF32Neg:
		f32un(arch.EvFAdd, func(a float32) float32 { return -a })
	case wasm.OpF32Ceil:
		f32un(arch.EvFAdd, func(a float32) float32 { return float32(math.Ceil(float64(a))) })
	case wasm.OpF32Floor:
		f32un(arch.EvFAdd, func(a float32) float32 { return float32(math.Floor(float64(a))) })
	case wasm.OpF32Trunc:
		f32un(arch.EvFAdd, func(a float32) float32 { return float32(math.Trunc(float64(a))) })
	case wasm.OpF32Nearest:
		f32un(arch.EvFAdd, func(a float32) float32 { return float32(math.RoundToEven(float64(a))) })
	case wasm.OpF32Sqrt:
		f32un(arch.EvFDiv, func(a float32) float32 { return float32(math.Sqrt(float64(a))) })
	case wasm.OpF32Add:
		f32bin(arch.EvFAdd, func(a, b float32) float32 { return a + b })
	case wasm.OpF32Sub:
		f32bin(arch.EvFAdd, func(a, b float32) float32 { return a - b })
	case wasm.OpF32Mul:
		f32bin(arch.EvFMul, func(a, b float32) float32 { return a * b })
	case wasm.OpF32Div:
		f32bin(arch.EvFDiv, func(a, b float32) float32 { return a / b })
	case wasm.OpF32Min:
		f32bin(arch.EvFAdd, func(a, b float32) float32 { return float32(math.Min(float64(a), float64(b))) })
	case wasm.OpF32Max:
		f32bin(arch.EvFAdd, func(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) })
	case wasm.OpF32Copysign:
		f32bin(arch.EvFAdd, func(a, b float32) float32 { return float32(math.Copysign(float64(a), float64(b))) })

	// f64 arithmetic.
	case wasm.OpF64Abs:
		f64un(arch.EvFAdd, math.Abs)
	case wasm.OpF64Neg:
		f64un(arch.EvFAdd, func(a float64) float64 { return -a })
	case wasm.OpF64Ceil:
		f64un(arch.EvFAdd, math.Ceil)
	case wasm.OpF64Floor:
		f64un(arch.EvFAdd, math.Floor)
	case wasm.OpF64Trunc:
		f64un(arch.EvFAdd, math.Trunc)
	case wasm.OpF64Nearest:
		f64un(arch.EvFAdd, math.RoundToEven)
	case wasm.OpF64Sqrt:
		f64un(arch.EvFDiv, math.Sqrt)
	case wasm.OpF64Add:
		f64bin(arch.EvFAdd, func(a, b float64) float64 { return a + b })
	case wasm.OpF64Sub:
		f64bin(arch.EvFAdd, func(a, b float64) float64 { return a - b })
	case wasm.OpF64Mul:
		f64bin(arch.EvFMul, func(a, b float64) float64 { return a * b })
	case wasm.OpF64Div:
		f64bin(arch.EvFDiv, func(a, b float64) float64 { return a / b })
	case wasm.OpF64Min:
		f64bin(arch.EvFAdd, math.Min)
	case wasm.OpF64Max:
		f64bin(arch.EvFAdd, math.Max)
	case wasm.OpF64Copysign:
		f64bin(arch.EvFAdd, math.Copysign)

	// Conversions.
	case wasm.OpI32WrapI64:
		conv(func(v uint64) uint64 { return uint64(uint32(v)) })
	case wasm.OpI64ExtendI32S:
		conv(func(v uint64) uint64 { return uint64(int64(int32(v))) })
	case wasm.OpI64ExtendI32U:
		conv(func(v uint64) uint64 { return uint64(uint32(v)) })
	case wasm.OpI32TruncF64S, wasm.OpI32TruncF64U, wasm.OpI64TruncF64S, wasm.OpI64TruncF64U,
		wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U:
		ctr.Add(arch.EvConv, 1)
		t := top()
		var f float64
		switch op {
		case wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U:
			f = float64(math.Float32frombits(uint32(*t)))
		default:
			f = math.Float64frombits(*t)
		}
		if math.IsNaN(f) {
			return h, newTrap(TrapIntOverflow, "%v of NaN", op)
		}
		f = math.Trunc(f)
		switch op {
		case wasm.OpI32TruncF64S, wasm.OpI32TruncF32S:
			if f < math.MinInt32 || f > math.MaxInt32 {
				return h, newTrap(TrapIntOverflow, "%v out of range", op)
			}
			*t = uint64(uint32(int32(f)))
		case wasm.OpI32TruncF64U, wasm.OpI32TruncF32U:
			if f < 0 || f > math.MaxUint32 {
				return h, newTrap(TrapIntOverflow, "%v out of range", op)
			}
			*t = uint64(uint32(f))
		case wasm.OpI64TruncF64S, wasm.OpI64TruncF32S:
			if f < math.MinInt64 || f >= math.MaxInt64 {
				return h, newTrap(TrapIntOverflow, "%v out of range", op)
			}
			*t = uint64(int64(f))
		default:
			if f < 0 || f >= math.MaxUint64 {
				return h, newTrap(TrapIntOverflow, "%v out of range", op)
			}
			*t = uint64(f)
		}
	case wasm.OpF64ConvertI32S:
		conv(func(v uint64) uint64 { return math.Float64bits(float64(int32(v))) })
	case wasm.OpF64ConvertI32U:
		conv(func(v uint64) uint64 { return math.Float64bits(float64(uint32(v))) })
	case wasm.OpF64ConvertI64S:
		conv(func(v uint64) uint64 { return math.Float64bits(float64(int64(v))) })
	case wasm.OpF64ConvertI64U:
		conv(func(v uint64) uint64 { return math.Float64bits(float64(v)) })
	case wasm.OpF32ConvertI32S:
		conv(func(v uint64) uint64 { return uint64(math.Float32bits(float32(int32(v)))) })
	case wasm.OpF32ConvertI32U:
		conv(func(v uint64) uint64 { return uint64(math.Float32bits(float32(uint32(v)))) })
	case wasm.OpF32ConvertI64S:
		conv(func(v uint64) uint64 { return uint64(math.Float32bits(float32(int64(v)))) })
	case wasm.OpF32ConvertI64U:
		conv(func(v uint64) uint64 { return uint64(math.Float32bits(float32(v))) })
	case wasm.OpF32DemoteF64:
		conv(func(v uint64) uint64 { return uint64(math.Float32bits(float32(math.Float64frombits(v)))) })
	case wasm.OpF64PromoteF32:
		conv(func(v uint64) uint64 { return math.Float64bits(float64(math.Float32frombits(uint32(v)))) })
	case wasm.OpI32ReinterpretF32, wasm.OpF32ReinterpretI32:
		conv(func(v uint64) uint64 { return v & 0xFFFFFFFF })
	case wasm.OpI64ReinterpretF64, wasm.OpF64ReinterpretI64:
		conv(func(v uint64) uint64 { return v })

	default:
		return h, newTrap(TrapUnreachable, "unimplemented opcode %v", op)
	}
	return h, nil
}
