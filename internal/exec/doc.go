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
// # Dispatch
//
// One rule holds inside (*Instance).run: every per-instruction decision
// is one indirect jump or none. Go compiles a switch to a jump table —
// a bounds compare and `JMP 0(Rtable)(Rindex*8)` — only for eight or
// more integer cases whose values span at most four times their count
// (cmd/compile/internal/walk/switch.go, minDensity); anything sparser
// becomes a binary search of compare-and-branch pairs. Hence
// `switch in.Op` enumerates the named and fused opcodes, which
// internal/ir numbers as one contiguous block, and takes the numerics
// through `default` into a second switch on the (single-byte, dense)
// wasm opcode; the shared fusedALU block switches on aluKind[op]
// (fused.go), not on the wasm opcode; the fused tail switch lists fused
// opcodes only; and a tag-checked access is one call from its handler:
// fusedMemLoad / fusedMemStore table-jump straight to the variant's
// address function, and addrMTE / addrB64 inline mte.Allows — two
// tag-byte compares — in front of CheckAccess, which stays the slow
// path that builds or latches the fault.
//
// To see what the compiler made of it on linux/amd64:
//
//	go build -o /tmp/cage-serve ./cmd/cage-serve
//	go tool objdump -s 'exec\.\(\*Instance\)\.run$' /tmp/cage-serve |
//	    grep -cE 'JMP 0\([A-Z0-9]+\)\([A-Z0-9]+\*8\)'
//
// prints 4 (main switch, numeric default switch, fusedALU kind switch,
// fused tail switch); CI fails below that, and ir.TestOpSpaceDense and
// TestFusedALUKindsMatchSlowPath pin the two tables. Tried and moved
// nothing, so nobody repeats them: splitting run into an outer
// per-frame loop and an inner dispatch loop (halves the loop-head
// spills, 8 → 4 stores, no measurable gain), and suspecting the
// per-event ctr.Add (it is one `ADDQ $1, off(Rctr)`).
//
// A second rule holds of the fused tier: a fused handler makes no
// indirect jump of its own for a constituent the fuse pass could name.
// The shape-generic superinstructions carry their ALU opcodes as
// immediates (fused.const+alu+alu+load+alu has three), so each one
// leaves the main switch for the shared fusedALU block, table-jumps on
// aluKind once per ALU constituent, and jumps once more on in.Op to
// retire: 26 table jumps for the 7 dispatches (38 constituents) of one
// gemm inner-loop iteration. Fusion was saving the loop head (pc++,
// &code[pc], the operand-stack bounds) but re-taking the decision
// "which ALU op is this" per constituent, per dispatch. The idiom
// opcodes (ir/idiom.go) take it once, in the fuse pass, and record it
// in the opcode: each has one case in the main switch that reads its
// operands from locals, immediates and the entry stack into Go locals,
// charges the constituents' events in constituent order, and writes the
// result — no goto fusedALU, no switch on an ALU opcode, the operand
// stack untouched in between. The same iteration is 9 table jumps: the
// seven dispatches and the two loads' memory variant, which stays a
// run-time field behind fusedMemLoad (inlining that variant switch into
// the three load idioms measured the same and tripled their code). Over
// the 25 polybench kernels and the Fig. 15 ptr-auth 2mm under `full`,
// 85 % of the ALU constituents executed inside fused ops now run in an
// idiom case. The fusedALU block is what is left for every tuple
// without an idiom — other ALU ops, 32-bit code — and the ALU ops it
// does not inline take inst.numeric,
// as an unfused instruction would. An idiom is identical to its
// constituent sequence in results, traps, trap text, event totals and
// interrupt checkpoints (TestIdiomsMatchConstituents), with one
// exception no site can be held to: f64.add / f64.mul of two different
// NaNs keep the payload of whichever operand the compiled instruction
// names first, and the compiler picks that per site.
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
// duration of the host call, exactly like the HostContext itself. A
// crossing allocates nothing: the HostContext and the typed adapters'
// one-value result slice are per-instance storage
// (TestHostCallZeroAlloc), which is sound because the context holds no
// per-call state and the result is copied to the operand stack before
// the instance can cross again.
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
// over the dirty page runs: each run gets the pristine layout (below)
// and then the image's spans inside it, bytes and — with MTE — tags.
// Zero iterations after a call that wrote nothing, every page for a
// pinned instance. Anything else — a spawn, a new image, a grown memory
// — installs the whole image, one way on every platform: pristine
// storage (next section) plus a copy of the image's spans, the page runs
// that can differ from the layout (few, post-init).
// BenchmarkForkByImageSize holds the measurement that retired the
// copy-on-write (MAP_PRIVATE) install and the rule for ever adding a
// second one.
//
// Snapshot reads the same set — only dirty pages (and the base image's
// spans) can differ from the layout, so the image stores just those,
// back to back, and nothing for the pages between them — and arms the
// witness: the instance equals its image.
//
// # Storage, the pristine layout and the written set
//
// One rule: birth never loops over memory. An instance's memory has one
// of two backings, and storage.go is the only file that knows which
// (setPristine, growStorage, release). A program lowered with guard
// opcodes — a 32-bit memory where vmem.Supported() found the kernel
// willing, probed once per process, no build tag — lives in a vmem
// reservation: see the end of this section. Everything else is
// heap-backed.
//
// What a heap-backed instance owns besides its small state is its
// storage: the linear
// memory, the tag array (one byte per granule, handed to mte.Memory with
// AdoptTags), and the written set — the pages whose bytes or tags may
// differ from the pristine layout: zero bytes; tags equal to the
// holder's sandbox tag over [0, memSize) and 0 over the host reserve
// (all 0 without sandboxing). For a live instance the written set is its
// dirty set plus its base image's spans: every page after memory.grow or
// MarkMemoryDirty, and every page for good once Memory() or HostRegion()
// let a raw view escape.
//
// Storage outlives the instance. Close hands it to memPool — at most
// four, process-wide — unless the instance is pinned (the view's holder
// may still write) — and so does a NewInstance that fails after taking
// it (a trapping start function, a bad data segment). A birth
// that needs storage of that size (and tag array) takes the oldest and
// scrubs it: it clears the bytes and re-lays the tags of the written
// page runs, and refills the whole tag array — with mte.FillTags, at
// memmove speed — only when the layout itself changes hands, that is
// when the taker's sandbox tag or guest size differs from the retiree's.
// Storage of another shape is dropped and the birth makes its own, laid
// out by the same fill. NewInstance (which therefore charges
// StartupGranulesTagged for the §7.2 stg loop without running it on the
// host), ResetState and installImage all start from pristine storage
// and then write what they would have written anyway: the host-reserve
// pattern, data segments, an image's spans. An instance that needs
// pristine storage of its own size — a reset without growth, a pooled
// checkin onto a newly registered image — scrubs the storage it already
// has instead of dropping it. BirthStats counts births on recycled and
// on newly made storage.
//
// Guard storage follows the same rule by other means. The reservation is
// mapped at the instance's first setPristine, kept until release — the
// guard handlers index it directly, so it is never replaced — and never
// pooled: Close unmaps it. It has no host reserve and no tags. Resizing
// is SetCommitted: pages a shrink drops come back zero from the kernel,
// pages a grow adds are new, and the prefix that stays committed is
// cleared by its written page runs, not whole.
//
// The scrub is as sound as the dirty set: a page a write path failed to
// mark would reach the next tenant. FuzzRestoreSoundness therefore ends
// every random sequence by retiring the instances and comparing a fresh
// birth and a fork of a foreign image on the recycled storage, whole
// memory and whole tag array, with the same births on never-used
// storage.
//
// Snapshot.tags is stored by span for the same reason Snapshot.mem is:
// outside the spans an image is the pristine layout, so a capture copies
// the tags of the pages initialisation wrote — not 1/16 of the memory —
// an install overlays them on pristine storage (remapping the capturing
// instance's sandbox tag to the taker's), and an image retains kilobytes,
// not the 0.4 MB per 6.6 MB memory a whole tag image took. What is still
// O(memory): memory.grow on heap storage copies the old memory, and
// MarkMemoryDirty or a pinned instance restores every page.
// Kernel-provided dirty bits on guard mappings (ROADMAP item 1) would
// take the marking out of the opcodes' hands.
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
//     cost: charged to the model, laid by the storage's tag layout)
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
//     later instance from the image (span copy onto pristine storage,
//     dirty-page restores thereafter)
//   - Instance.Close   — teardown returning the sandbox tag to the
//     §6.4/§7.4 budget and the storage to the next birth
//   - Trap             — the trap taxonomy embedders classify violations
//     with (tag mismatch, auth failure, bounds, segment misuse,
//     stack overflow)
package exec
