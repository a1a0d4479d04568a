package exec

import (
	"context"
	"fmt"
	"math"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/ir"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/ptrlayout"
	"cage/internal/vmem"
	"cage/internal/wasm"
)

// Config controls instantiation.
type Config struct {
	// Features selects the active Cage components (paper Table 3).
	Features core.Features
	// HostModules is the host surface the module links against; with
	// Imports nil, imports resolve against these modules (freezing
	// them), and with neither no imports are allowed. Host functions
	// are provided only this way or pre-resolved via Imports.
	HostModules []*HostModule
	// Imports is an optional pre-resolved import table (ResolveImports),
	// typically cached per compiled module so pooled instances share one
	// snapshot instead of re-linking. It takes precedence over
	// HostModules; NewInstance verifies it fits the module.
	Imports *ImportTable
	// HostData is an arbitrary embedder value attached to the instance
	// and reachable from every host function via HostContext.Data: the
	// per-instance state (allocator binding, WASI system) that host
	// closures must not capture once import tables are shared.
	HostData any
	// ProcessKey is the process-wide PAC key; zero value gets a
	// deterministic default.
	ProcessKey pac.Key
	// Seed seeds deterministic tag/modifier generation.
	Seed uint64
	// Counter receives instruction events; nil allocates a private one.
	Counter *arch.Counter
	// Sandboxes shares sandbox-tag allocation across instances of one
	// process; nil allocates a private allocator.
	Sandboxes *core.SandboxAllocator
	// SandboxTag, when not core.RuntimeTag, is a tag the caller already
	// acquired from Sandboxes for this instance (with Features.Sandbox):
	// NewInstance adopts it instead of acquiring one, and Close returns
	// it, on a failed instantiation too. An engine's birth loop acquires
	// first so that an attempt on an exhausted §7.4 budget builds nothing.
	SandboxTag uint8
	// MaxCallDepth bounds recursion; 0 means the default (1024). The
	// bound is exact: it counts live activations (guest frames plus
	// in-flight host crossings), and exceeding it traps with
	// TrapStackOverflow at a deterministic frame count.
	MaxCallDepth int
	// MaxStackWords bounds the value arena — the contiguous slots
	// holding every live frame's params, locals, and operand stack — in
	// 64-bit words; 0 means the default (1<<22 words, 32 MiB). Exceeding
	// it traps with TrapStackOverflow, so deep recursion is bounded in
	// bytes as well as frames.
	MaxStackWords uint64
	// SkipBoundsChecks emulates a buggy bounds-check lowering such as
	// CVE-2023-26489 (paper §3): software sandboxing silently breaks,
	// while MTE sandboxing still catches the escape. Test/demo use only.
	SkipBoundsChecks bool
	// Program is an optional pre-lowered instruction stream for the
	// module, typically shared from an engine cache so pooled instances
	// skip the lowering pass. It must have been produced by
	// LowerModule (or ir.Lower with LowerConfig) for the same module
	// and an equivalent configuration, from a module already validated:
	// NewInstance does not validate a module whose program it adopts.
	// Nil validates and lowers privately.
	Program *ir.Program
	// Snapshot, when non-nil, instantiates by restoring this frozen
	// image (Instance.Snapshot) instead of replaying data segments,
	// tagging the whole memory, and running the start function — the
	// §7.2 costs a pre-initialized fork skips. The snapshot must have
	// been captured from an instance of the same module under the same
	// Features.
	Snapshot *Snapshot
}

// strategyFor derives the sandboxing strategy from the module's memory
// kind and the active features (paper Table 3 → Figs. 12–13).
func strategyFor(mt wasm.MemoryType, f core.Features) memStrategy {
	switch {
	case !mt.Memory64:
		return stratGuard32
	case f.Sandbox:
		return stratMTE64
	default:
		return stratBounds64
	}
}

// LowerConfig derives the ir lowering configuration NewInstance uses
// for module m under cfg. Cache layers key lowered programs on it (plus
// the module's content hash).
func LowerConfig(m *wasm.Module, cfg Config) ir.Config {
	var mt wasm.MemoryType
	if len(m.Mems) > 0 {
		mt = m.Mems[0]
	}
	mode := ir.ModeGuard32
	switch strategyFor(mt, cfg.Features) {
	case stratBounds64:
		mode = ir.ModeBounds64
	case stratMTE64:
		mode = ir.ModeMTE64
	}
	return ir.Config{
		Mode:       mode,
		SkipBounds: cfg.SkipBoundsChecks,
		MemSafety:  cfg.Features.MemSafety,
		PtrAuth:    cfg.Features.PtrAuth,
		Harden:     cfg.Features.SpectreHarden,
		// Guard-region opcodes only make sense for the guard32 strategy
		// with real bounds checks, and only when the platform and kernel
		// can back them with a vmem reservation. Supported() is constant
		// per process, so this derivation (and the program-cache identity
		// built on it) is stable.
		Guard: mode == ir.ModeGuard32 && !cfg.SkipBoundsChecks && vmem.Supported(),
	}
}

// LowerModule validates m and lowers it exactly as NewInstance would
// under cfg, for embedders that cache lowered programs and pass them
// back via Config.Program. Validation happens here, once per program,
// because an instance that adopts the program does not repeat it.
func LowerModule(m *wasm.Module, cfg Config) (*ir.Program, error) {
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}
	return ir.Lower(m, LowerConfig(m, cfg))
}

// memStrategy is how the engine enforces the sandbox on each access.
type memStrategy int

const (
	// stratGuard32 models 32-bit wasm with virtual-memory guard pages:
	// no per-access cost.
	stratGuard32 memStrategy = iota
	// stratBounds64 is wasm64 with explicit software bounds checks.
	stratBounds64
	// stratMTE64 is Cage's MTE-based sandboxing (Fig. 12b).
	stratMTE64
)

// Instance is an instantiated module.
type Instance struct {
	module  *wasm.Module
	mem     []byte // guest memory followed by the host-reserve region
	memSize uint64 // guest-visible size in bytes
	memType wasm.MemoryType
	globals []uint64
	table   []int32
	prog    *ir.Program
	imports []HostFunc

	// Guard-region memory backing (programs with Cfg.Guard set; owned by
	// storage.go). gmap is the vmem reservation and gmem its full
	// Bytes() — ReservationSize long, PROT_NONE past the committed
	// prefix — which the OpLoadG32G/OpStoreG32G handlers index directly
	// so the MMU performs the bounds check. mem remains the committed
	// guest-visible prefix view (gmem[:memSize]); a guard instance has no
	// host reserve. Both are nil on the heap backing.
	gmem []byte
	gmap *vmem.Mapping
	// guardPC is the pc of the guard-region access the dispatch loop is
	// making, written before each one: a fault leaves run by panic, and
	// runProtected needs the pc to take back the rest of its region's
	// events (trapped).
	guardPC int

	features core.Features
	policy   core.Policy
	strategy memStrategy
	segs     *core.Segments
	tags     *mte.Memory
	keys     core.InstanceKeys
	sandbox  uint8  // this instance's sandbox tag
	heapBase uint64 // tagged heap base (Fig. 12b)

	// Teardown state (Close): the sandbox allocator the tag returns to.
	sandboxes *core.SandboxAllocator
	closed    bool

	counter *arch.Counter
	// visits counts, per region of the program's event table
	// (ir.Charges, indexed by Instr.Charge), the dispatch loop's entries
	// into it since the last drain, and visited lists each region whose
	// count is not zero, once (frame.go, the region label). drain prices
	// them into counter. Both are sized at instantiation and never grow:
	// visited's capacity is the number of regions.
	visits       []uint64
	visited      []uint32
	maxCallDepth int
	depth        int // live activations: guest frames + in-flight host crossings
	skipBounds   bool

	// Frame-machine state (frame.go). vals is the one contiguous value
	// arena holding params, locals, and operand stack for every live
	// frame; frames is the typed frame-record stack. Both retain their
	// capacity across calls and restores, so steady-state guest→guest calls
	// allocate nothing. arenaTop is the first free arena slot outside
	// any running dispatch loop — the base a re-entrant invocation (the
	// embedder, or a host function via HostContext.Call) builds on.
	// valsHigh is the arena's high-water mark: no slot at or above it has
	// been written since the last scrub, so the scrub clears only below it.
	vals          []uint64
	valsHigh      int
	frames        []frameRec
	arenaTop      int
	maxStackWords uint64

	// Per-call interruption state (call.go): meter is non-nil only while
	// an InvokeWith with a cancellable context or a fuel budget is in
	// flight — the dispatch loop's checkpoints reduce to one nil test
	// otherwise — and memLimitPages caps memory.grow for the call.
	// callCtx is the in-flight call's context, which host functions read
	// through their HostContext (nil outside InvokeWith). All three are
	// only touched by the goroutine driving the instance.
	meter         *meter
	memLimitPages uint64
	callCtx       context.Context

	// Storage every guest→host crossing reuses, so a crossing allocates
	// nothing: hostCtx is the HostContext callHost hands to host
	// functions, hostRes the one-value result slice of the typed
	// adapters (HostContext.result).
	hostCtx HostContext
	hostRes [1]uint64

	// hostData is the embedder value host functions reach through
	// HostContext.Data (Config.HostData).
	hostData any

	// Snapshot/restore state (snapshot.go). lastImage is the base image
	// — the snapshot the last restore or capture left memory and tags
	// equal to, nil before either — and dirty the pages that may have
	// diverged from it since (dirty.go): together the restore witness.
	// restoredPages: see RestoredPages.
	lastImage     *Snapshot
	dirty         dirtySet
	restoredPages int

	// StartupGranulesTagged records how many granules were tagged at
	// instantiation (the §7.2 startup-cost experiment).
	StartupGranulesTagged uint64
}

// hostReserveSize is the size of the host-owned region after the guest
// memory of a heap-backed instance, used by sandbox-escape
// demonstrations.
const hostReserveSize = 4096

// NewInstance links and instantiates a module. A birth pays for what
// is specific to the instance: its sandbox tag, taken before anything is
// built (on an exhausted §7.4 budget it returns
// core.ErrSandboxesExhausted and builds nothing), its storage, and its
// image — data segments and the start function on pristine storage, or
// a snapshot's spans (Config.Snapshot). What depends only on the module
// is the caller's to share: given Config.Program and Config.Imports (an
// engine resolves both once per module) a birth neither validates, nor
// links, nor lowers; without a program NewInstance validates the module
// and lowers it privately.
func NewInstance(m *wasm.Module, cfg Config) (*Instance, error) {
	// The sandbox tag (Fig. 12b) first. From the deferred Close below
	// on, a failure returns it.
	policy := core.NewPolicy(cfg.Features)
	sandboxes, tag := cfg.Sandboxes, cfg.SandboxTag
	if cfg.Features.Sandbox && tag == core.RuntimeTag {
		if sandboxes == nil {
			sandboxes = core.NewSandboxAllocator(policy)
		}
		var err error
		if tag, err = sandboxes.Acquire(); err != nil {
			return nil, err
		}
	}
	inst := &Instance{
		module:       m,
		features:     cfg.Features,
		policy:       policy,
		counter:      cfg.Counter,
		maxCallDepth: cfg.MaxCallDepth,
		skipBounds:   cfg.SkipBoundsChecks,
		hostData:     cfg.HostData,
	}
	inst.hostCtx.inst = inst
	if cfg.Features.Sandbox {
		inst.sandboxes = sandboxes
		inst.sandbox = tag
		inst.heapBase = ptrlayout.WithTag(0, tag)
	}
	if inst.counter == nil {
		inst.counter = &arch.Counter{}
	}
	if inst.maxCallDepth == 0 {
		inst.maxCallDepth = 1024
	}
	inst.maxStackWords = cfg.MaxStackWords
	if inst.maxStackWords == 0 {
		inst.maxStackWords = defaultMaxStackWords
	}
	// If any later instantiation step fails, close what was built: the
	// sandbox tag goes back, so a pooled engine retrying instantiation
	// does not leak tag budget, and the storage goes where Close sends it,
	// so a module whose start function traps costs neither a memory of
	// garbage nor 4 GiB of reserved address space per attempt.
	instantiated := false
	defer func() {
		if !instantiated {
			_ = inst.Close() // the instantiation error is the one to report
		}
	}()

	// A module that arrives without its program is validated here, once,
	// before linking or lowering reads it; an adopted program vouches for
	// its module (LowerModule validated it).
	if cfg.Program == nil {
		if err := wasm.Validate(m); err != nil {
			return nil, err
		}
	}

	// Resolve imports: adopt the shared pre-resolved snapshot when the
	// embedder cached one, otherwise link now (structured LinkErrors).
	switch {
	case cfg.Imports != nil:
		if err := cfg.Imports.matches(m); err != nil {
			return nil, err
		}
		inst.imports = cfg.Imports.funcs
	default:
		table, err := ResolveImports(m, cfg.HostModules...)
		if err != nil {
			return nil, err
		}
		inst.imports = table.funcs
	}

	// Strategy and lowering before memory: the (possibly adopted)
	// program's Guard bit decides which memory backend the instance
	// needs, so the program must exist first.
	if len(m.Mems) > 0 {
		inst.memType = m.Mems[0]
	}
	inst.strategy = strategyFor(inst.memType, cfg.Features)
	if inst.strategy == stratGuard32 && (cfg.Features.MemSafety || cfg.Features.Sandbox) {
		return nil, fmt.Errorf("exec: Cage features require a 64-bit memory (wasm64)")
	}

	// Lower function bodies to the flat executable form, or adopt a
	// shared pre-lowered program (engine caches lower once per module
	// hash + configuration and hand the result to every instance). An
	// adopted program's Guard bit is authoritative: a program lowered
	// without guard opcodes (an embedder cache built off-build, a
	// hand-constructed test program) runs on the heap backend even when
	// this build could guard, and vice versa fails cleanly below when
	// the backend is unavailable.
	lcfg := LowerConfig(m, cfg)
	if cfg.Program != nil {
		lcfg.Guard = cfg.Program.Cfg.Guard
		if !cfg.Program.Matches(m, lcfg) {
			return nil, fmt.Errorf("exec: pre-lowered program does not match module/configuration (have %+v, want %+v)",
				cfg.Program.Cfg, lcfg)
		}
		inst.prog = cfg.Program
	} else {
		prog, err := ir.Lower(m, lcfg)
		if err != nil {
			return nil, err
		}
		inst.prog = prog
	}
	inst.sizeVisits()

	// MTE state, before the memory: the tag array is part of the
	// instance's storage and arrives with it.
	if cfg.Features.MemSafety || cfg.Features.Sandbox {
		mode := cfg.Features.MTEMode
		if mode == mte.ModeDisabled {
			mode = mte.ModeSync
		}
		inst.tags = mte.NewMemory(0, mode)
		if cfg.Seed != 0 {
			inst.tags.Seed(cfg.Seed)
		}
		if err := inst.tags.SetExcludeMask(inst.policy.IRGExclude); err != nil {
			return nil, err
		}
		inst.segs = core.NewSegments(inst.tags, inst.policy, func() []byte { return inst.mem })
		inst.segs.SetLimit(func() uint64 { return inst.memSize })
	}

	// Memory: storage in the pristine layout, which already carries the
	// sandbox tag over the guest memory (Fig. 12b; the host reserve stays
	// runtime-tagged, zero) — the stg loop is charged, not run. When
	// restoring from a snapshot the image supplies the memory (and its tag
	// layout) wholesale, and RestoreFromSnapshot takes the storage.
	if cfg.Snapshot == nil {
		initSize := inst.memType.Limits.Min * wasm.PageSize
		if err := inst.setPristine(int(initSize+hostReserveSize), initSize); err != nil {
			return nil, err
		}
		if cfg.Features.Sandbox {
			inst.StartupGranulesTagged += initSize / mte.GranuleSize
		}
		inst.fillHostReserve()
	}

	// PAC state.
	key := cfg.ProcessKey
	if (key == pac.Key{}) {
		key = pac.KeyFromSeed(0xCA6E)
	}
	inst.keys = core.NewInstanceKeys(key, deriveModifier(cfg.Seed))

	// Globals, table + element segments, data segments, then the start
	// function — or, for a pre-initialized fork, the snapshot restore
	// that replaces all four (the image was captured after the start/init
	// already ran).
	if cfg.Snapshot != nil {
		if err := inst.RestoreFromSnapshot(cfg.Snapshot, cfg.Seed); err != nil {
			return nil, err
		}
	} else {
		inst.initGlobals()
		if err := inst.initTable(); err != nil {
			return nil, err
		}
		if err := inst.initData(); err != nil {
			return nil, err
		}
		if m.Start != nil {
			if _, err := inst.invoke(*m.Start, nil); err != nil {
				return nil, err
			}
		}
	}
	instantiated = true
	return inst, nil
}

// deriveModifier turns an instantiation seed into a per-instance PAC
// modifier (paper §6.3: per-instance behaviour from a random modifier).
func deriveModifier(seed uint64) uint64 {
	return seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
}

// Close retires the instance, returning its sandbox tag to the shared
// allocator so a future instantiation can claim it (the teardown half of
// the §6.4 tag budget) and its storage — memory, tag array, written page
// set — to the next birth of its size. Close is idempotent; a closed
// instance must not be invoked or restored again, and must not be closed
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

// fillHostReserve stamps a recognizable pattern over the host-owned
// region after guest memory, standing in for runtime data a sandbox
// escape would leak.
func (inst *Instance) fillHostReserve() {
	inst.dirty.mark(inst.memSize, uint64(len(inst.mem))-inst.memSize)
	for i := inst.memSize; i < uint64(len(inst.mem)); i++ {
		inst.mem[i] = 0x5A
	}
}

// initGlobals loads every global from its initializer.
func (inst *Instance) initGlobals() {
	for _, g := range inst.module.Globals {
		inst.globals = append(inst.globals, g.Init)
	}
}

// initTable builds the indirect-call table from element segments.
func (inst *Instance) initTable() error {
	m := inst.module
	if len(m.Tables) == 0 {
		return nil
	}
	inst.table = make([]int32, m.Tables[0].Limits.Min)
	for i := range inst.table {
		inst.table[i] = -1
	}
	for _, es := range m.Elems {
		for i, fidx := range es.Funcs {
			slot := int(es.Offset) + i
			if slot >= len(inst.table) {
				return fmt.Errorf("exec: element segment exceeds table size")
			}
			inst.table[slot] = int32(fidx)
		}
	}
	return nil
}

// initData replays the active data segments into linear memory.
func (inst *Instance) initData() error {
	for _, d := range inst.module.Datas {
		if d.Offset+uint64(len(d.Bytes)) > inst.memSize {
			return fmt.Errorf("exec: data segment [%d, +%d) exceeds memory size %d",
				d.Offset, len(d.Bytes), inst.memSize)
		}
		inst.dirty.mark(d.Offset, uint64(len(d.Bytes)))
		copy(inst.mem[d.Offset:], d.Bytes)
	}
	return nil
}

// Module returns the underlying module.
func (inst *Instance) Module() *wasm.Module { return inst.module }

// HostData returns the embedder value attached at instantiation
// (Config.HostData), also reachable from host functions via
// HostContext.Data.
func (inst *Instance) HostData() any { return inst.hostData }

// Program returns the lowered instruction stream the instance executes.
func (inst *Instance) Program() *ir.Program { return inst.prog }

// Memory returns the guest-visible linear memory. The returned slice
// aliases live instance state and may be retained and written at any
// time — after any later restore too — so calling this marks every
// page dirty and pins the set: each later restore rewrites the whole
// memory, and Close does not hand the storage to another instance.
// Runtime code uses the tracked accessors in host.go instead.
func (inst *Instance) Memory() []byte {
	inst.dirty.pinned = true
	return inst.mem[:inst.memSize]
}

// MemorySize returns the guest memory size in bytes.
func (inst *Instance) MemorySize() uint64 { return inst.memSize }

// HostRegion returns the host-owned bytes after the guest memory (used
// by sandbox-escape demonstrations). Like Memory, the view aliases live
// state, so it marks every page dirty and pins the set.
func (inst *Instance) HostRegion() []byte {
	inst.dirty.pinned = true
	return inst.mem[inst.memSize:]
}

// sizeVisits allocates the visit counts for the program's event table.
func (inst *Instance) sizeVisits() {
	n := inst.prog.Charges.Len()
	inst.visits = make([]uint64, n)
	inst.visited = make([]uint32, 0, n)
}

// drain prices the regions the dispatch loop entered since the last
// drain: each listed region's events, times its count, go to the
// counter, and the counts and the list are zeroed. The walk is one per
// distinct region per drain, not one per region entry.
func (inst *Instance) drain() {
	ctr, charges := inst.counter, &inst.prog.Charges
	for _, r := range inst.visited {
		n := inst.visits[r]
		inst.visits[r] = 0
		for _, e := range charges.Events(r) {
			ctr.Add(arch.Event(e.Ev), n*uint64(e.N))
		}
	}
	inst.visited = inst.visited[:0]
}

// Counter returns the instruction-event counter.
func (inst *Instance) Counter() *arch.Counter { return inst.counter }

// Tags returns the MTE tag memory (nil without MTE features).
func (inst *Instance) Tags() *mte.Memory { return inst.tags }

// SandboxTag returns the instance's sandbox tag (0 without sandboxing).
func (inst *Instance) SandboxTag() uint8 { return inst.sandbox }

// Keys returns the instance's pointer-authentication state.
func (inst *Instance) Keys() core.InstanceKeys { return inst.keys }

// Policy returns the derived tag policy.
func (inst *Instance) Policy() core.Policy { return inst.policy }

// Features returns the active feature set.
func (inst *Instance) Features() core.Features { return inst.features }

// Invoke calls an exported function by name. On return it polls the
// asynchronous MTE fault flag — the "context switch" check of paper
// §2.3 — so violations recorded in async or asymmetric mode surface as
// (late) traps here.
func (inst *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	fidx, ok := inst.module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("exec: no exported function %q", name)
	}
	res, err := inst.invoke(fidx, args)
	if err == nil {
		err = inst.pollAsyncFault()
	}
	return res, err
}

// pollAsyncFault reports a latched asynchronous tag fault as a trap.
func (inst *Instance) pollAsyncFault() error {
	if inst.tags == nil {
		return nil
	}
	if f := inst.tags.PendingFault(); f != nil {
		return newTrap(TrapTagMismatch, "deferred: %v", f)
	}
	return nil
}

// GlobalValue reads an exported global's raw bits.
func (inst *Instance) GlobalValue(name string) (uint64, bool) {
	for _, e := range inst.module.Exports {
		if e.Kind == wasm.ExportGlobal && e.Name == name {
			return inst.globals[e.Idx], true
		}
	}
	return 0, false
}

// Value encoding helpers for embedders.

// F64Bits returns the raw bits of a float64 value.
func F64Bits(v float64) uint64 { return math.Float64bits(v) }

// F64Val decodes a float64 from raw bits.
func F64Val(bits uint64) float64 { return math.Float64frombits(bits) }
