package exec

import (
	"context"
	"encoding/binary"

	"cage/internal/arch"
	"cage/internal/ptrlayout"
)

// HostContext is handed to every host function. It carries the
// host-side privileges of one in-flight guest→host crossing:
//
//   - the call's context.Context (the one passed to Engine.Call /
//     InvokeWith), so a blocking host function can select on
//     cancellation — returning the context error makes the guest trap
//     with TrapInterrupted instead of a generic host error;
//   - a bounds-checked Memory view over the guest linear memory;
//   - fuel accounting (ConsumeFuel), debited against the active meter
//     chain so metered calls observe host-side work;
//   - re-entrant guest calls (Call), which chain the per-call meters so
//     an inner invocation can never mask the outer call's deadline or
//     budget.
//
// A HostContext is only valid for the duration of the host call it was
// handed to; host functions must not retain it. Every crossing of one
// instance shares one HostContext (Instance.hostCtx): it holds no
// per-call state — Context reads the instance's in-flight call context,
// which InvokeWith saves and restores around every entry, so a host
// function that re-enters the guest under another context finds its
// own again when the inner call returns.
type HostContext struct {
	inst *Instance
	// ctx is set only on a context built by Instance.HostContext for
	// host-side use outside a guest call; nil means the in-flight call's.
	ctx context.Context
}

// Context returns the in-flight call's context: the ctx given to
// InvokeWith (and hence to Engine.Call), or context.Background() for an
// unbounded Invoke. Blocking host functions should select on
// Context().Done() and return Context().Err() when it fires; the
// runtime converts that into a TrapInterrupted trap.
func (hc *HostContext) Context() context.Context {
	if hc.ctx != nil {
		return hc.ctx
	}
	if ctx := hc.inst.callCtx; ctx != nil {
		return ctx
	}
	return context.Background()
}

// result returns v as a typed host function's one-value result slice,
// in per-instance storage: the dispatch loop copies it onto the
// caller's operand stack before the instance can cross into the host
// again, so the adapters never allocate one.
func (hc *HostContext) result(v uint64) []uint64 {
	hc.inst.hostRes[0] = v
	return hc.inst.hostRes[:]
}

// Instance exposes the executing instance for runtime-internal host
// code (the hardened allocator, segment operations). Most host
// functions should stay on the HostContext surface.
func (hc *HostContext) Instance() *Instance { return hc.inst }

// Data returns the embedder value attached to the instance
// (Config.HostData): per-instance host state such as the hardened
// allocator binding or a WASI system, shared by all host functions of
// the instance.
func (hc *HostContext) Data() any { return hc.inst.hostData }

// Memory returns the bounds-checked view of the guest linear memory.
func (hc *HostContext) Memory() Memory { return Memory{inst: hc.inst} }

// ConsumeFuel debits n fuel units (timing-model events, arch.EvHost)
// for host-side work, then polls the active meter chain: if the debit
// exhausts any in-flight fuel budget — or a cancellation landed — it
// returns the corresponding trap, which the host function should
// propagate. With no meter armed it only records the events.
func (hc *HostContext) ConsumeFuel(n uint64) error {
	hc.inst.counter.Add(arch.EvHost, n)
	if m := hc.inst.meter; m != nil {
		return m.check(hc.inst.counter)
	}
	return nil
}

// Call re-enters the guest: it invokes the exported function name on
// the same instance under ctx (nil means the host call's own context).
// The inner invocation chains onto the in-flight call's meters, so the
// outer deadline and fuel budget keep counting — a host function cannot
// launder an unbounded guest call out of a bounded one. In the frame
// machine the re-entry opens a barrier frame above the in-flight
// activation's live arena: the inner call tree stacks (and, if needed,
// grows the arena) above the outer frames and is unwound to the
// barrier however it exits, so the interrupted caller always resumes
// on intact state.
func (hc *HostContext) Call(ctx context.Context, name string, args []uint64) ([]uint64, error) {
	if ctx == nil {
		ctx = hc.Context()
	}
	res, err := hc.inst.InvokeWith(ctx, name, args, CallOptions{})
	return res.Values, err
}

// HostContext builds a host context for direct host-side use of the
// instance outside a guest call (tests, embedder tooling that drives
// host functions directly). ctx may be nil.
func (inst *Instance) HostContext(ctx context.Context) *HostContext {
	return &HostContext{inst: inst, ctx: ctx}
}

// Memory is the bounds-checked host view of one instance's guest linear
// memory. Accesses accept guest pointers as the guest would pass them —
// MTE tag and PAC bits are stripped before use — and every access is
// charged to the timing model like a guest load or store. Unlike guest
// accesses, the view does not check MTE tags: host functions run with
// runtime privileges, exactly like the runtime's own accesses (see the
// package comment's privilege model). Bounds are always enforced
// against the guest-visible memory size, so no host function can be
// tricked into touching the runtime-owned region beyond it.
type Memory struct {
	inst *Instance
}

// untagPtr strips the metadata bits a guest pointer may carry: the MTE
// tag and PAC signature for 64-bit pointers, the upper half for ILP32
// pointers.
func untagPtr(p uint64, ptr32 bool) uint64 {
	if ptr32 {
		return p & 0xFFFFFFFF
	}
	return ptrlayout.Address(ptrlayout.StripTag(p))
}

// addr canonicalizes a guest pointer for this instance's memory model.
func (m Memory) addr(p uint64) uint64 {
	return untagPtr(p, !m.inst.memType.Memory64)
}

// Size returns the guest-visible memory size in bytes.
func (m Memory) Size() uint64 { return m.inst.memSize }

// span bounds-checks [p, p+n) after untagging and charges the access
// to the timing model — one event per 8-byte unit (minimum one), the
// word width a guest loop would pay — returning the physical offset.
// Proportional charging keeps bulk host copies visible to WithFuel
// budgets instead of letting them cost a flat event.
func (m Memory) span(p, n uint64, ev arch.Event) (uint64, error) {
	addr := m.addr(p)
	if err := checkHostRange(addr, n, m.inst.memSize); err != nil {
		return 0, err
	}
	units := (n + 7) / 8
	if units == 0 {
		units = 1
	}
	m.inst.counter.Add(ev, units)
	return addr, nil
}

// ReadBytes copies n bytes of guest memory starting at the guest
// pointer p.
func (m Memory) ReadBytes(p, n uint64) ([]byte, error) {
	addr, err := m.span(p, n, arch.EvLoad)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.inst.mem[addr:addr+n])
	return out, nil
}

// WriteBytes copies b into guest memory at the guest pointer p.
func (m Memory) WriteBytes(p uint64, b []byte) error {
	addr, err := m.span(p, uint64(len(b)), arch.EvStore)
	if err != nil {
		return err
	}
	m.inst.dirty.mark(addr, uint64(len(b)))
	copy(m.inst.mem[addr:], b)
	return nil
}

// ReadString reads n bytes at the guest pointer p as a string.
func (m Memory) ReadString(p, n uint64) (string, error) {
	addr, err := m.span(p, n, arch.EvLoad)
	if err != nil {
		return "", err
	}
	return string(m.inst.mem[addr : addr+n]), nil
}

// ReadU64 reads a little-endian u64 at the guest pointer p.
func (m Memory) ReadU64(p uint64) (uint64, error) {
	addr, err := m.span(p, 8, arch.EvLoad)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(m.inst.mem[addr:]), nil
}

// WriteU64 writes a little-endian u64 at the guest pointer p.
func (m Memory) WriteU64(p, v uint64) error {
	addr, err := m.span(p, 8, arch.EvStore)
	if err != nil {
		return err
	}
	m.inst.dirty.mark(addr, 8)
	binary.LittleEndian.PutUint64(m.inst.mem[addr:], v)
	return nil
}

// ReadU32 reads a little-endian u32 at the guest pointer p.
func (m Memory) ReadU32(p uint64) (uint32, error) {
	addr, err := m.span(p, 4, arch.EvLoad)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.inst.mem[addr:]), nil
}

// WriteU32 writes a little-endian u32 at the guest pointer p.
func (m Memory) WriteU32(p uint64, v uint32) error {
	addr, err := m.span(p, 4, arch.EvStore)
	if err != nil {
		return err
	}
	m.inst.dirty.mark(addr, 4)
	binary.LittleEndian.PutUint32(m.inst.mem[addr:], v)
	return nil
}
