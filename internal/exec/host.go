package exec

import (
	"encoding/binary"
	"fmt"
)

// Host-side accessors used by runtime components (the hardened
// allocator, WASI). Host code runs with runtime privileges: raw reads
// and writes bypass MTE tag checks the way the runtime's own memory
// accesses do, while the HostSegment* wrappers go through the same
// segment semantics (and event accounting) as guest instructions. These
// accessors take physical offsets and charge no timing-model events;
// host functions handling guest-supplied pointers should use the
// HostContext's Memory view instead, which untags pointers and accounts
// its accesses.

// HostSegmentNew performs segment.new on behalf of the runtime.
func (inst *Instance) HostSegmentNew(ptr, length uint64) (uint64, error) {
	return inst.segmentNew(ptr, length, 0)
}

// HostSegmentSetTag performs segment.set_tag on behalf of the runtime.
func (inst *Instance) HostSegmentSetTag(ptr, tagged, length uint64) error {
	return inst.segmentSetTag(ptr, tagged, length, 0)
}

// HostSegmentFree performs segment.free on behalf of the runtime.
func (inst *Instance) HostSegmentFree(tagged, length uint64) error {
	return inst.segmentFree(tagged, length, 0)
}

// GrowMemory grows the guest memory by delta pages, returning the old
// page count or ^0 on failure.
func (inst *Instance) GrowMemory(deltaPages uint64) uint64 {
	return inst.memoryGrow(deltaPages)
}

// checkHostRange is the one overflow-safe bounds check every host
// accessor shares: it verifies [addr, addr+n) lies inside a memory of
// size bytes without ever forming the possibly-wrapping sum addr+n.
func checkHostRange(addr, n, size uint64) error {
	if n > size || addr > size-n {
		return fmt.Errorf("exec: host access [%#x, +%d) outside guest memory (%#x bytes)",
			addr, n, size)
	}
	return nil
}

func (inst *Instance) hostRange(addr, n uint64) error {
	return checkHostRange(addr, n, inst.memSize)
}

// ReadU64 reads a little-endian u64 at addr with runtime privileges.
func (inst *Instance) ReadU64(addr uint64) (uint64, error) {
	if err := inst.hostRange(addr, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(inst.mem[addr:]), nil
}

// WriteU64 writes a little-endian u64 at addr with runtime privileges.
func (inst *Instance) WriteU64(addr, v uint64) error {
	if err := inst.hostRange(addr, 8); err != nil {
		return err
	}
	inst.dirty.mark(addr, 8)
	binary.LittleEndian.PutUint64(inst.mem[addr:], v)
	return nil
}

// ReadBytes copies n guest bytes starting at addr.
func (inst *Instance) ReadBytes(addr, n uint64) ([]byte, error) {
	if err := inst.hostRange(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, inst.mem[addr:addr+n])
	return out, nil
}

// WriteBytes copies b into guest memory at addr.
func (inst *Instance) WriteBytes(addr uint64, b []byte) error {
	if err := inst.hostRange(addr, uint64(len(b))); err != nil {
		return err
	}
	inst.dirty.mark(addr, uint64(len(b)))
	copy(inst.mem[addr:], b)
	return nil
}

// ZeroBytes zeroes n guest bytes starting at addr.
func (inst *Instance) ZeroBytes(addr, n uint64) error {
	if err := inst.hostRange(addr, n); err != nil {
		return err
	}
	inst.dirty.mark(addr, n)
	clear(inst.mem[addr : addr+n])
	return nil
}

// CopyBytes copies n guest bytes from src to dst within guest memory
// (the ranges may overlap).
func (inst *Instance) CopyBytes(dst, src, n uint64) error {
	if err := inst.hostRange(max(dst, src), n); err != nil {
		return err
	}
	inst.dirty.mark(dst, n)
	copy(inst.mem[dst:dst+n], inst.mem[src:src+n])
	return nil
}
