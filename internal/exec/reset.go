package exec

import (
	"fmt"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/mte"
	"cage/internal/wasm"
)

// deriveModifier turns an instantiation seed into a per-instance PAC
// modifier (paper §6.3: per-instance behaviour from a random modifier).
func deriveModifier(seed uint64) uint64 {
	return seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
}

// Reset returns the instance to its freshly-instantiated state so a pool
// can recycle it instead of paying full re-instantiation (validation,
// import resolution, function precompilation, memory allocation). It
//
//   - restores the linear memory to its initial size, zeroes what the
//     previous lifetime wrote, and replays the module's data segments,
//   - restores globals and the indirect-call table from their
//     initializers,
//   - returns the MTE tags to the instantiation layout — the guest
//     memory under the instance's sandbox tag (Fig. 12b), the tag
//     storage following the memory back to its initial size — reseeds
//     the deterministic tag generator from seed, and clears any latched
//     asynchronous fault,
//   - re-derives the PAC modifier from seed (unless the embedder pinned
//     one at instantiation), invalidating pointers signed in the
//     previous lifetime (§6.3),
//   - re-runs the module's start function, if any.
//
// The sandbox tag itself is retained: returning it to the allocator and
// re-acquiring would be wasted work for a pooled instance, and keeping
// it preserves the §7.4 tag-budget accounting. After a trap — even a
// memory-safety violation mid-invocation — Reset scrubs every piece of
// state an aborted execution can leave behind, so a recycled instance is
// indistinguishable from a new one.
//
// Embedders that maintain host-side state tied to the instance (the
// hardened allocator's heap bookkeeping, for example) must rewind that
// state before the start function runs: call ResetState, rewind, then
// RunStart, exactly as a fresh instantiation would order them.
func (inst *Instance) Reset(seed uint64) error {
	if err := inst.ResetState(seed); err != nil {
		return err
	}
	return inst.RunStart()
}

// ResetState is Reset without the start function: it restores memory,
// globals, table, data segments, MTE tags, and PAC state, leaving the
// instance in the pre-start moment of instantiation.
func (inst *Instance) ResetState(seed uint64) error {
	if inst.closed {
		return fmt.Errorf("exec: reset of closed instance")
	}
	// Memory and tags: back to the pristine layout at the initial size —
	// the instance's own storage, scrubbed by the pages it wrote, while it
	// still has that size.
	initSize := inst.memType.Limits.Min * wasm.PageSize
	if err := inst.setPristine(int(initSize+inst.hostReserve), initSize); err != nil {
		return err
	}
	// Reset leaves memory at the pre-init state, not a snapshot's: the
	// base image (whose spans the scrub above still needed) is gone, and
	// the set restarts from the writes below.
	inst.lastImage = nil
	// Refill the host-reserve pattern: a previous lifetime may have
	// corrupted it (async-mode or bounds-check-disabled escape demos write
	// past memSize), and a recycled instance must be indistinguishable
	// from a fresh one.
	inst.fillHostReserve()

	// Globals, table + element segments, data segments — the same
	// replay NewInstance performs.
	inst.initGlobals()
	if err := inst.initTable(); err != nil {
		return err
	}
	if err := inst.initData(); err != nil {
		return err
	}

	// MTE state: fresh randomness, no latched faults. The guest memory
	// carries the sandbox tag again (Fig. 12b) — pristine storage does —
	// and re-tagging is the same cost center as the §7.2 startup
	// experiment: charge it to the timing model.
	if inst.tags != nil {
		if seed != 0 {
			inst.tags.Seed(seed)
		}
		inst.tags.PendingFault()
		if inst.features.Sandbox && inst.memSize > 0 {
			inst.counter.Add(arch.EvSTGGranule, inst.memSize/mte.GranuleSize)
		}
	}

	// PAC: a new lifetime gets a new modifier, so signed pointers that
	// leaked out of the previous lifetime fail authentication.
	if !inst.fixedModifier {
		inst.keys = core.NewInstanceKeys(inst.keys.Key, deriveModifier(seed))
	}

	inst.scrubCallState()
	return nil
}

// scrubCallState is the one scrub tail of ResetState and
// RestoreFromSnapshot. The arena and frame stack keep their capacity —
// that retention is what makes a pooled checkout→call→checkin cycle
// steady-state allocation-free — but their contents are scrubbed, up to
// the arena's high-water mark, so no value from a previous lifetime
// (dead locals, an aborted operand stack) is observable in the next
// one. Per-call interruption state never outlives InvokeWith, but a
// recycled instance must be indistinguishable from a fresh one even if
// an embedder drove the instance in unexpected ways.
func (inst *Instance) scrubCallState() {
	inst.depth = 0
	inst.arenaTop = 0
	inst.frames = inst.frames[:0]
	clear(inst.vals[:inst.valsHigh])
	inst.valsHigh = 0
	inst.meter = nil
	inst.callCtx = nil
	inst.memLimitPages = 0
}

// RunStart runs the module's start function, if any. It is the second
// half of Reset (and of instantiation); no-op for modules without a
// start section.
func (inst *Instance) RunStart() error {
	if inst.closed {
		return fmt.Errorf("exec: start on closed instance")
	}
	if inst.module.Start != nil {
		if _, err := inst.invoke(*inst.module.Start, nil); err != nil {
			return err
		}
	}
	return nil
}

// Close retires the instance, returning its sandbox tag to the shared
// allocator so a future instantiation can claim it (the teardown half of
// the §6.4 tag budget) and its storage — memory, tag array, written page
// set — to the next birth of its size. Close is idempotent; a closed
// instance must not be invoked or reset again, and must not be closed
// with a call in flight: its memory and tags may back another instance
// from here on.
func (inst *Instance) Close() error {
	if inst.closed {
		return nil
	}
	inst.closed = true
	if inst.sandboxes != nil && inst.sandbox != core.RuntimeTag {
		inst.sandboxes.Release(inst.sandbox)
	}
	return inst.release()
}
