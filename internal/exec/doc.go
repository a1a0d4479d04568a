// Package exec executes Cage-extended wasm64 modules: an interpreter
// implementing the paper's small-step semantics (Fig. 11), three
// sandboxing strategies (32-bit guard pages, 64-bit software bounds
// checks, MTE-based tagging per Fig. 12b/13), pointer authentication for
// indirect calls (Figs. 9–11), and instruction-event accounting for the
// timing model.
//
// # The frame machine
//
// Execution runs over the lowered form of internal/ir: NewInstance
// lowers the module's functions once (or adopts a cached ir.Program via
// Config.Program), and invocation drives a frame machine (frame.go) —
// one flat dispatch loop over a single reusable per-instance value
// arena. Each lowered function carries a FrameSize computed at lower
// time, and one activation occupies exactly that many contiguous
// []uint64 slots: parameters, declared locals, then the operand stack.
//
// Guest→guest calls never recurse through Go and never allocate. A call
// pushes a typed frame record and opens the callee's frame at the
// caller's operand-stack top, so the arguments already sit in the
// callee's parameter slots — no copy; a return slides the results down
// over the dead frame, landing exactly where the caller expects its
// stack top. The arena and the frame-record stack retain their capacity
// across calls and across Reset, which makes the pooled
// checkout→call→checkin cycle steady-state allocation-free (CI gates
// this with testing.AllocsPerRun), and deep wasm recursion consumes
// arena slots, not Go stack.
//
// The resource bounds are exact: MaxCallDepth counts live activations
// (guest frames plus in-flight host crossings) and MaxStackWords counts
// arena slots, and exceeding either traps with TrapStackOverflow at a
// deterministic frame count and size — not whenever Go's stack happens
// to run out. Both have per-call overrides (CallOptions).
//
// Go recursion and allocation survive only at the sandbox boundary:
// invoke copies the embedder's args into the entry frame and the
// results back out, and each such entry is a re-entry barrier — a host
// function that re-enters the guest through HostContext.Call stacks its
// frames above the live arena top, and the barrier state is restored
// however the inner run unwinds, so the outer activation always
// resumes intact.
//
// Branches carry absolute target PCs and precomputed stack repair, the
// sandboxing strategy is baked into mode-specialized memory opcodes at
// lower time, and each opcode reports its fixed cost events, keeping
// the arch timing model exact — the legacy-oracle differential suite
// holds the frame machine to identical results, traps, and event
// counts.
//
// # Interruption points
//
// InvokeWith is the bounded-call entry (call.go): it arms a per-call
// meter carrying an atomic interrupt flag (set by a context watcher
// goroutine) and a fuel limit measured in timing-model events. The
// dispatch loop polls the meter at every taken branch — br, taken
// br_if, taken br_ifz, br_table, the superset of loop back-edges — and
// at every call, so a guest infinite loop or runaway recursion is
// reached within one iteration. A tripped checkpoint unwinds with
// TrapInterrupted (wrapping ctx.Err()) or TrapFuelExhausted; like any
// trap, the unwind leaves the instance resettable, so pooled engines
// recycle interrupted instances normally. When no context cancellation
// and no fuel budget apply, the meter is nil and every checkpoint
// degenerates to a single never-taken pointer test — the zero-cost nop
// variant that keeps unmetered dispatch at full speed.
//
// # Host functions and the privilege model
//
// Host functions are defined in HostModules — typed adapters
// (Func0..Func4, Void0..Void4) or raw slots — and linked either via
// Config.HostModules or, for pooled engines, via a Config.Imports
// snapshot resolved once per compiled module (ResolveImports). Link
// failures are structured LinkErrors wrapping ErrUnresolvedImport /
// ErrImportTypeMismatch. Every host function receives a HostContext:
// the in-flight call's context, a Memory view, fuel accounting, and
// re-entrant guest Call. The args slice a host function receives is a
// view of the caller's operand-stack slots in the arena — valid for the
// duration of the host call, exactly like the HostContext itself.
//
// Host code runs with runtime privileges, which draws a precise line
// through the MTE machinery:
//
//   - Guest accesses (lowered loads/stores) are subject to the full
//     sandbox: bounds or masking, and tag checks under MTE modes. A
//     mismatch traps.
//   - The HostContext Memory view accepts guest pointers (untagging
//     them the way the address-lowering helpers do), enforces bounds
//     against the guest-visible memory size, and charges the timing
//     model — but performs no tag check. The host is the runtime: like
//     the kernel servicing a syscall, it accesses memory under its own
//     privilege, and a tag check against a guest-chosen tag would add
//     no integrity (the host's bounds check is what keeps it inside
//     the sandbox). This mirrors real MTE, where EL1 accesses are
//     checked against TCF settings of the kernel, not the process.
//   - The Instance.ReadBytes/WriteBytes/ReadU64/WriteU64 accessors take
//     physical offsets with no untagging and no event accounting; they
//     are for runtime subsystems (the hardened allocator's metadata
//     walks) that already hold canonical addresses.
//   - The HostSegment* wrappers go through the same segment semantics
//     (and event accounting) as the guest's segment.* instructions, so
//     allocator tagging behaves exactly like in-guest tagging.
//
// A blocking host function should select on HostContext.Context: when
// the call's deadline fires, returning the context error makes the
// guest trap with TrapInterrupted, and even a host function that
// swallows the cancellation is caught by the post-host meter check.
//
// # Snapshots and forking
//
// Instance.Snapshot freezes a quiescent instance's full mutable state —
// linear memory (plus host reserve), globals, indirect-call table, MTE
// tag image and generator state, PAC keys, and the §7.2/§7.4 accounting
// — into an immutable Snapshot. The image is consumed two ways, both
// through the single restore helper RestoreFromSnapshot:
//
//   - Config.Snapshot at instantiation: NewInstance skips data-segment
//     replay, whole-memory tagging, and the start function, restoring
//     the image instead (the engine's pool-spawn fast path).
//   - RestoreFromSnapshot on a live instance: the pooled-reset fast
//     path — rewind a recycled instance to the post-init state instead
//     of replaying Reset's zero + data segments + start.
//
// This is Wizer-style pre-initialization: run the expensive start/init
// once, snapshot, and fork every subsequent instance from the frozen
// image. Restores are safe concurrently against one shared snapshot.
//
// # The dirty page set and the two restore legs
//
// Every instance keeps one dirty page set (dirty.go): one bit per 4 KiB
// of linear memory, host reserve included, set when the page's bytes or
// its 256 tag granules may differ from the instance's base image — the
// snapshot it last restored from or captured. The set is marked where an
// address is resolved for writing: in addrG32/addrB64/addrMTE (so every
// lowered and fused store, memory.fill and memory.copy), at the two
// guard-region stores, in the host accessors (Instance.WriteU64,
// WriteBytes, ZeroBytes, CopyBytes, the HostContext Memory view), in
// data-segment replay, and in segment.new/set_tag/free, which change
// bytes and tags without a store. memory.grow and MarkMemoryDirty mark
// every page; Memory() and HostRegion() also pin them, because a raw
// view can be written through after any later restore.
//
// RestoreFromSnapshot of the same image at the same size is one loop
// over the dirty page runs, rewriting bytes and (with MTE) tag runs from
// the image, on every build: zero iterations after a call that wrote
// nothing, every page for a pinned instance, in place over the private
// mapping under cagecow. Anything else — a spawn, a new image, a grown
// memory — installs the whole image; SnapshotRestoreMode reports how:
//
//   - default ("copy"): a zeroed buffer plus a copy of the image's
//     spans, the page runs that can be non-zero (few, post-init). The
//     buffer is a closed instance's when one of that size is at hand
//     (memPool), cleared; instantiation without an image looks there
//     too.
//   - cagecow && linux && (amd64 || arm64) ("cow"): capture also seals
//     the image into a memfd, and each install maps it MAP_PRIVATE —
//     O(1)-ish in heap size; pages are copied by the kernel only when
//     written. If the mapping fails at runtime the install falls back to
//     copy; other platforms compile the stub and always copy.
//     GOOS=darwin (and every non-Linux target) builds cleanly with or
//     without the tag.
//
// A guard-region instance (cageguard) keeps its reservation: install is
// recommit, clear, copy spans. Snapshot reads the same set — only dirty
// pages (and the base image's spans) can be non-zero, so the image
// stores just those, back to back, and nothing for the zeros between
// them (under cagecow they are holes in the memfd) — and arms the
// witness: the instance equals its image.
//
// Reset-semantics migration note: Reset always rotates the PAC
// modifier, so pointers signed in a previous lifetime fail
// authentication (§6.3). A snapshot restore preserves that property
// when it can prove the image carries no signatures (no
// i64.pointer_sign executed before capture — the common case, checked
// at capture time): each fork derives a fresh modifier from its seed.
// When the image does carry signed pointers, forks must adopt the
// snapshot's keys so stored signatures keep authenticating — forks of
// such an image share one modifier, a deliberate relaxation of the
// one-modifier-per-lifetime rule that embedders snapshotting
// signature-bearing state opt into.
//
// Paper map:
//
//   - NewInstance      — instantiation: linking, lowering, sandbox-tag
//     assignment and whole-memory tagging (Fig. 12b, the §7.2 startup
//     cost)
//   - Instance.Invoke  — execution with the Fig. 7/10/11 instruction
//     extension (segment.*, i64.pointer_sign / i64.pointer_auth);
//     InvokeWith adds context interruption and per-call fuel, stack,
//     and memory bounds
//   - Instance.Reset   — instance recycling for pooled engines: restores
//     the freshly-instantiated state (memory, tags, PAC modifier)
//     without re-paying validation, precompilation, or the frame
//     machine's arena
//   - Instance.Snapshot / RestoreFromSnapshot — Wizer-style
//     pre-initialization: freeze the post-init state once, fork every
//     later instance from the image (copy or MAP_PRIVATE COW install,
//     dirty-page restores thereafter)
//   - Instance.Close   — teardown returning the sandbox tag to the
//     §6.4/§7.4 budget
//   - Trap             — the trap taxonomy embedders classify violations
//     with (tag mismatch, auth failure, bounds, segment misuse,
//     stack overflow)
package exec
