package exec

import (
	"runtime/debug"
)

// This file is the fault-recovery half of the guard-region memory
// backend (internal/vmem): the dispatch loop's guard load/store
// handlers index the full mmap reservation with no Go-level bounds
// check, so an out-of-bounds guest access arrives here as a hardware
// fault. runProtected converts exactly those faults — and nothing
// else — into the TrapOutOfBounds the explicit bounds check raises.

// guardProbeSink receives guard store probes' last-byte reads; being a
// package-level variable, writes to it are observable and the probe
// load cannot be optimized away.
var guardProbeSink byte

// runProtected wraps one dispatch-loop run in the guard fault handler
// and prices the regions the run entered into the counter (drain),
// however it ends. On the heap backend it is a plain call; with a
// guard mapping it arms runtime.SetPanicOnFault so an MMU fault inside
// the reservation surfaces as a recoverable runtime.Error carrying the
// faulting address instead of killing the process.
//
// The recover path is strict: only a fault panic whose address the
// mapping owns becomes a trap. Any other panic — a genuine executor
// bug, a fault in unrelated memory — is re-raised unchanged, so guard
// recovery can never mask a real crash. Frame-machine state left
// behind by the aborted run is scrubbed by invoke's re-entry barrier,
// the same unwind path every other trap takes.
func (inst *Instance) runProtected(barrier int) (err error) {
	if inst.gmap == nil {
		err = inst.run(barrier)
		inst.drain()
		return err
	}
	old := debug.SetPanicOnFault(true)
	defer func() {
		debug.SetPanicOnFault(old)
		inst.drain()
		if r := recover(); r != nil {
			f, ok := r.(interface {
				error
				Addr() uintptr
			})
			if !ok || !inst.gmap.Owns(f.Addr()) {
				panic(r)
			}
			// The faulting access is the top frame's, at the pc its
			// access path published.
			code := inst.frames[len(inst.frames)-1].fn.Code
			err = inst.trapped(code, inst.guardPC, memConstituent(&code[inst.guardPC]),
				newTrap(TrapOutOfBounds, "address 0x%x (guard region)", inst.gmap.GuestAddr(f.Addr())))
		}
	}()
	return inst.run(barrier)
}
