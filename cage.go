// Package cage is a pure-Go reproduction of "Cage: Hardware-Accelerated
// Safe WebAssembly" (CGO 2025): a wasm64 toolchain and runtime that
// provides spatial and temporal memory safety for unmodified C programs
// using (simulated) Arm MTE and PAC.
//
// The package is a facade over the internal subsystems:
//
//   - a MiniC compiler with the paper's two sanitizer passes (stack
//     hardening per Algorithm 1, pointer authentication per Fig. 9)
//   - a wasm64 engine implementing the Cage instruction extension
//     (segment.new / segment.set_tag / segment.free / i64.pointer_sign /
//     i64.pointer_auth, Figs. 7, 10, 11)
//   - MTE-based sandboxing replacing software bounds checks (Figs. 12, 13)
//   - a hardened dlmalloc-style allocator (Fig. 8a)
//   - timing models of the Pixel 8's Cortex-X3/A715/A510 cores that
//     price executions for the paper's evaluation
//
// # Invocation API
//
// Execution is driven through the context-first Call API:
// Engine.Call(ctx, mod, fn, args, opts...) and Instance.Call(ctx, fn,
// args, opts...) return a Result carrying the return values, the fuel
// consumed, and the timing-model event snapshot. Per-call options bound
// the call: WithFuel meters it deterministically, WithTimeout /
// WithDeadline interrupt it (in addition to whatever deadline or
// cancellation ctx itself carries), WithStackDepth bounds recursion at
// an exact frame count, WithValueStack bounds the execution arena in
// words (both trap with TrapStackOverflow), and WithMemoryLimit caps
// memory.grow. Instance.Invoke and Instance.InvokeF64 remain as
// deprecated wrappers over Instance.Call with a background context.
//
// # Host modules
//
// Embedders extend the host surface with modules built by NewHostModule
// and passed in Config.HostModules: typed adapters (HostFunc1,
// HostVoid2, ...) lower Go functions onto wasm import slots, and every
// host function receives a HostContext carrying the call's context, a
// bounds-checked Memory view over guest memory, ConsumeFuel debiting
// against WithFuel budgets, and re-entrant guest Call riding the
// per-call meter chain. NewRuntime (and so NewEngine) freezes the host
// surface, so resolved import tables are snapshotted per compiled
// module and shared by pooled instances; the built-in WASI,
// hardened-libc, and env surfaces are built with the same API. Link
// failures are structured LinkErrors wrapping ErrUnresolvedImport /
// ErrImportTypeMismatch.
//
// # Execution pipeline
//
// Modules flow compile → lower → cache → pool. CompileSource (or
// DecodeModule) produces a validated wasm.Module; before the first
// execution the module is lowered (internal/ir) into a flat,
// pre-resolved instruction stream specialized for the configuration —
// branch targets become absolute PCs, immediates are decoded once, and
// each memory access is compiled to the configuration's sandboxing
// mode (guard pages, software bounds checks, or MTE). A Runtime caches
// one lowered program and import table per module content hash and
// every instance shares them; an Engine adds the compiled-module cache
// and the recycled-instance pool on top, so steady-state invocations
// touch neither the compiler nor the lowerer nor the §7.2
// instantiation costs.
//
// Every layer of that pipeline is interruptible. A queued checkout —
// blocked on the pool's live cap or on the §7.4 sandbox-tag budget —
// selects on the call's context and abandons the queue when it ends. A
// running guest polls an atomic interrupt flag (armed by a per-call
// context watcher) and the fuel budget at every taken branch and
// function call in the lowered dispatch loop, trapping with
// TrapInterrupted or TrapFuelExhausted; unbounded calls keep the
// zero-cost variant of those checkpoints (a nil test). The interrupted
// instance is reset like any trapped one before the pool reuses it, so
// cancellation never poisons a pooled instance or leaks a tag.
//
// # Quick start
//
//	tc := cage.NewToolchain(cage.FullHardening())
//	mod, err := tc.CompileSource(`
//	    extern char* malloc(long n);
//	    long sum(long n) {
//	        long* a = (long*)malloc(n * 8);
//	        long s = 0;
//	        for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
//	        return s;
//	    }`)
//	rt := cage.NewRuntime(cage.FullHardening())
//	inst, err := rt.Instantiate(mod)
//	res, err := inst.Invoke("sum", 100)
package cage

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/engine"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/minicc"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/vmem"
	"cage/internal/wasi"
	"cage/internal/wasm"
)

// Config selects the Cage components for both compilation and execution
// (paper Table 3 configurations), plus what a Runtime or Engine built
// from it links guests against. NewRuntime and NewEngine read it once:
// nothing about a runtime's configuration changes after construction.
type Config struct {
	// Wasm64 selects 64-bit linear memory (required by every Cage
	// feature); false builds the wasm32 guard-page baseline.
	Wasm64 bool
	// MemorySafety enables segments: the stack sanitizer at compile
	// time, tag-checked memory and the hardened allocator at run time.
	MemorySafety bool
	// Sandboxing replaces wasm64 software bounds checks with MTE-based
	// sandboxing.
	Sandboxing bool
	// PointerAuth signs and authenticates function pointers.
	PointerAuth bool
	// SpectreHarden layers the Swivel-style speculation mitigations on
	// top of the selected components, in the timing model only: the
	// lowering inserts fence barriers before indirect branches and
	// returns, and the executor charges a BTB flush at every sandbox
	// transition. Execution semantics are bit-identical to the same
	// configuration without it — results, traps, and memory images match
	// — so the flag surfaces purely as extra fence/btb_flush events and
	// the fuel they cost (the mitigation tax of the paper's threat-model
	// discussion).
	SpectreHarden bool
	// ExtendedSandboxes lifts the per-process sandbox budget (15 tags,
	// or 1 when MTE also carries memory safety, §7.4) by reusing tags
	// across instances with disjoint, guard-separated memory ranges —
	// the scaling extension the paper sketches in §6.4 — and with it
	// each engine pool's cap.
	ExtendedSandboxes bool

	// HostModules are embedder host modules (built with NewHostModule)
	// whose functions guests may import alongside the built-in WASI,
	// hardened-libc and env surfaces. A module named "env" extends the
	// built-in env surface, where MiniC extern declarations resolve; a
	// per-function name collision with a built-in surfaces as a link
	// error. NewRuntime freezes every module, so define its functions
	// first; one module may serve several runtimes.
	HostModules []*HostModule
	// Stdout and Stderr receive the guest's WASI fd_write output (fds 1
	// and 2) and the env print helpers' (stdout). Nil discards it.
	Stdout, Stderr io.Writer
}

// Preset configurations (paper Table 3).

// Baseline32 is 32-bit WebAssembly with guard-page sandboxing.
func Baseline32() Config { return Config{} }

// Baseline64 is 64-bit WebAssembly with software bounds checks.
func Baseline64() Config { return Config{Wasm64: true} }

// MemorySafetyOnly enables only the internal memory-safety extension.
func MemorySafetyOnly() Config { return Config{Wasm64: true, MemorySafety: true} }

// PointerAuthOnly enables only pointer authentication.
func PointerAuthOnly() Config { return Config{Wasm64: true, PointerAuth: true} }

// SandboxingOnly enables only MTE-based external sandboxing.
func SandboxingOnly() Config { return Config{Wasm64: true, Sandboxing: true} }

// FullHardening enables every Cage component.
func FullHardening() Config {
	return Config{Wasm64: true, MemorySafety: true, Sandboxing: true, PointerAuth: true}
}

// Hardened is FullHardening plus the modeled Spectre mitigations:
// speculation fences at indirect branches and returns, and BTB flushes
// at sandbox transitions. Same semantics as FullHardening — only the
// event/fuel accounting differs.
func Hardened() Config {
	cfg := FullHardening()
	cfg.SpectreHarden = true
	return cfg
}

// ConfigByName maps the preset names the CLI tools share (full,
// hardened, baseline32, baseline64, memsafety, ptrauth, sandbox) to
// their Config, so every tool resolves a name to the exact same
// configuration.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "full":
		return FullHardening(), nil
	case "hardened":
		return Hardened(), nil
	case "baseline32":
		return Baseline32(), nil
	case "baseline64":
		return Baseline64(), nil
	case "memsafety":
		return MemorySafetyOnly(), nil
	case "ptrauth":
		return PointerAuthOnly(), nil
	case "sandbox":
		return SandboxingOnly(), nil
	}
	return Config{}, fmt.Errorf("cage: unknown config %q", name)
}

// Features exposes the core feature selection this configuration
// implies — the form the lowering and execution layers consume. Tools
// that lower modules outside a Runtime (cage-objdump -lowered) use it
// so their output matches what an engine under the same preset
// executes.
func (c Config) Features() core.Features { return c.features() }

func (c Config) features() core.Features {
	return core.Features{
		MemSafety:     c.MemorySafety,
		Sandbox:       c.Sandboxing,
		PtrAuth:       c.PointerAuth,
		MTEMode:       mte.ModeSync,
		SpectreHarden: c.SpectreHarden,
		TagReuse:      c.ExtendedSandboxes,
	}
}

func (c Config) codegenOptions() codegen.Options {
	return codegen.Options{
		Wasm64:         c.Wasm64,
		StackSanitizer: c.MemorySafety,
		PtrAuth:        c.PointerAuth,
	}
}

// Module is a compiled WebAssembly module.
type Module struct {
	wasm *wasm.Module

	// Content hash for the lowered-program cache, computed lazily from
	// the binary encoding (the same identity the module cache uses).
	hashOnce sync.Once
	hash     [sha256.Size]byte
	hashErr  error
}

// contentHash returns the module's binary-encoding SHA-256, memoized.
func (m *Module) contentHash() ([sha256.Size]byte, error) {
	m.hashOnce.Do(func() {
		bin, err := wasm.Encode(m.wasm)
		if err != nil {
			m.hashErr = err
			return
		}
		m.hash = sha256.Sum256(bin)
	})
	return m.hash, m.hashErr
}

// Raw exposes the underlying module representation.
func (m *Module) Raw() *wasm.Module { return m.wasm }

// Encode serializes the module to the binary format.
func (m *Module) Encode() ([]byte, error) { return wasm.Encode(m.wasm) }

// DecodeModule parses a binary module image.
func DecodeModule(bin []byte) (*Module, error) {
	raw, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	if err := wasm.Validate(raw); err != nil {
		return nil, err
	}
	return &Module{wasm: raw}, nil
}

// Toolchain compiles MiniC source to (hardened) wasm modules.
type Toolchain struct {
	cfg Config
}

// NewToolchain builds a compiler pipeline for the configuration.
func NewToolchain(cfg Config) *Toolchain { return &Toolchain{cfg: cfg} }

// CompileSource compiles a MiniC translation unit.
func (tc *Toolchain) CompileSource(src string) (*Module, error) {
	file, err := minicc.Parse(src)
	if err != nil {
		return nil, err
	}
	layout := minicc.Layout64
	if !tc.cfg.Wasm64 {
		layout = minicc.Layout32
	}
	prog, err := minicc.Analyze(file, layout)
	if err != nil {
		return nil, err
	}
	raw, err := codegen.Compile(prog, tc.cfg.codegenOptions())
	if err != nil {
		return nil, err
	}
	return &Module{wasm: raw}, nil
}

// Runtime instantiates modules under a shared process context: one PAC
// process key, one sandbox-tag allocator (at most 15 sandboxes per
// process, paper §7.4, unless Config.ExtendedSandboxes), and one host
// surface, all fixed by the Config it was built from. Instantiate is
// safe to call concurrently; the sandbox allocator serializes tag
// assignment internally.
type Runtime struct {
	cfg       Config
	key       pac.Key
	sandboxes *core.SandboxAllocator
	seed      atomic.Uint64

	// hostMods is the host surface: the built-in modules (hardened libc,
	// WASI, env) plus Config.HostModules, frozen at construction so
	// resolved import tables can be cached per module and shared by
	// pooled instances.
	hostMods []*exec.HostModule

	// programs caches, per module content hash, what every instance of
	// the module shares: the lowered, fused program and the resolved
	// import table (prepared). The lowering pass and the link run once per
	// process instead of once per instantiation. The hash alone is the
	// identity: the host surface is frozen, and the lowering config is a
	// function of the module and of the runtime's Config, fixed at
	// construction.
	programs engine.Cache[prepared]
}

// NewRuntime creates a process-level runtime for the configuration,
// freezing its host surface.
func NewRuntime(cfg Config) *Runtime {
	rt := &Runtime{
		cfg:       cfg,
		key:       pac.KeyFromSeed(0xCA6E_2025),
		sandboxes: core.NewSandboxAllocator(core.NewPolicy(cfg.features())),
	}
	rt.hostMods = append(rt.hostMods, alloc.HostModules()...)
	rt.hostMods = append(rt.hostMods, wasi.HostModule())
	rt.hostMods = append(rt.hostMods, envHostModules(cfg.Stdout)...)
	rt.hostMods = append(rt.hostMods, cfg.HostModules...)
	for _, hm := range rt.hostMods {
		hm.Freeze()
	}
	rt.seed.Store(1)
	return rt
}

// DispatchMode reports the execution tier this runtime builds programs
// for: the linear-memory backend ("guard" when a guard reservation is
// available — 64-bit Linux whose kernel grants one — and backs guard32
// memories, "bounds" otherwise). The second result is a constant, a
// benchmark-only leftover of the env line benchmark/main.go prints
// (ROADMAP, "Unblock the parked deletions"): every program is fused, and
// fusion has one mode.
func (rt *Runtime) DispatchMode() (memory, fusion string) {
	memory = "bounds"
	if vmem.Supported() {
		memory = "guard"
	}
	return memory, "exhaustive"
}

// prepared is what every instance of one module under a runtime
// shares: the resolved import table and the lowered, fused program.
// Both depend only on the module and the runtime's Config, so an engine
// resolves them once per module (Runtime.prepare) and every spawn reuses
// them.
type prepared struct {
	imports *exec.ImportTable
	prog    *ir.Program
}

// prepare returns m's shared birth inputs from the runtime's program
// cache, building them on first use with singleflight semantics: the
// program first, because building it validates the module
// (exec.LowerModule), so every instance that adopts it skips validation;
// then the import table. Link failures carry structured detail:
// errors.Is ErrUnresolvedImport / ErrImportTypeMismatch, errors.As
// *LinkError. A module whose binary encoding fails (never produced by
// this toolchain) is prepared privately instead of cached.
func (rt *Runtime) prepare(m *Module) (prepared, error) {
	build := func() (prepared, error) {
		p, err := exec.LowerModule(m.wasm, exec.Config{Features: rt.cfg.features()})
		if err != nil {
			return prepared{}, err
		}
		table, err := exec.ResolveImports(m.wasm, rt.hostMods...)
		if err != nil {
			return prepared{}, err
		}
		return prepared{imports: table, prog: fuse.Fuse(p, nil)}, nil
	}
	hash, err := m.contentHash()
	if err != nil {
		return build()
	}
	return rt.programs.GetOrBuild(engine.Key{Hash: hash, Variant: "prepared"}, build)
}

// nextSeed draws a fresh seed from the runtime's instantiation counter.
// Births and pooled resets share it, so every instance lifetime in the
// process gets a PAC modifier of its own (§6.3).
func (rt *Runtime) nextSeed() uint64 { return rt.seed.Add(1) }

// Instance is a running module.
type Instance struct {
	inst  *exec.Instance
	alloc *alloc.Allocator
	wasi  *wasi.System
}

// hostState is the per-instance host-side state every host function
// reaches through HostContext.Data: the hardened allocator binding
// (alloc.Provider) and the WASI system (wasi.Provider). One value per
// instance keeps the host modules themselves stateless, so a single
// resolved import table serves every pooled instance of a module.
type hostState struct {
	alloc *alloc.Allocator
	wasi  *wasi.System
}

func (h *hostState) HeapAllocator() *alloc.Allocator { return h.alloc }
func (h *hostState) WASISystem() *wasi.System        { return h.wasi }

// Instantiate validates, links (WASI + hardened libc + env helpers +
// Config.HostModules), and instantiates a module. Validation, linking
// and lowering happen once per module and runtime; later instances of
// the module share their results.
func (rt *Runtime) Instantiate(m *Module) (*Instance, error) {
	return rt.newInstance(m, nil)
}

// newInstance prepares m and instantiates it, from snap when it is not
// nil, on a sandbox tag of its own.
func (rt *Runtime) newInstance(m *Module, snap *Snapshot) (*Instance, error) {
	in, err := rt.prepare(m)
	if err != nil {
		return nil, err
	}
	tag, err := rt.acquireTag()
	if err != nil {
		return nil, err
	}
	return rt.instantiate(m, in, snap, tag)
}

// acquireTag takes a sandbox tag for one instance from the runtime's
// §7.4 budget (core.RuntimeTag, and no budget, without sandboxing). It
// is the whole cost of a birth attempt on an exhausted budget:
// core.ErrSandboxesExhausted, with nothing built.
func (rt *Runtime) acquireTag() (uint8, error) {
	if !rt.cfg.Sandboxing {
		return core.RuntimeTag, nil
	}
	return rt.sandboxes.Acquire()
}

// instantiate builds an instance of m from its prepared inputs on tag
// (acquireTag's), which it owns from here: a failure returns it to the
// budget. With snap non-nil the instance is forked from the frozen image
// (exec restores memory/globals/table/tags, the allocator adopts the
// image's heap bookkeeping, WASI its clock and random state) instead of
// replaying data segments, tagging memory, and running the start
// function.
func (rt *Runtime) instantiate(m *Module, in prepared, snap *Snapshot, tag uint8) (*Instance, error) {
	state := &hostState{wasi: wasi.New(rt.cfg.Stdout, rt.cfg.Stderr)}
	ecfg := exec.Config{
		Features:   rt.cfg.features(),
		Imports:    in.imports,
		Program:    in.prog,
		HostData:   state,
		ProcessKey: rt.key,
		Seed:       rt.nextSeed(),
		Sandboxes:  rt.sandboxes,
		SandboxTag: tag,
	}
	if snap != nil {
		ecfg.Snapshot = snap.exec
		state.wasi.Restore(snap.wasi)
	}
	inst, err := exec.NewInstance(m.wasm, ecfg)
	if err != nil {
		return nil, err
	}
	out := &Instance{inst: inst, wasi: state.wasi}
	if heapBase, ok := inst.GlobalValue("__heap_base"); ok {
		out.alloc, err = alloc.New(inst, heapBase)
		if err != nil {
			inst.Close() // return the sandbox tag
			return nil, err
		}
		if snap != nil {
			out.alloc.Restore(snap.heap)
		}
		state.alloc = out.alloc
	}
	return out, nil
}

// ProgramCacheStats snapshots the program cache counters: one miss per
// module content the runtime has prepared.
func (rt *Runtime) ProgramCacheStats() engine.CacheStats { return rt.programs.Stats() }

// Invoke calls an exported function with raw 64-bit argument bits.
//
// Deprecated: use Call, which adds context cancellation, deadlines, and
// per-call fuel/stack/memory bounds. Invoke delegates to Call with a
// background context.
func (i *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	res, err := i.Call(context.Background(), name, args)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// InvokeF64 calls an exported function returning a double.
//
// Deprecated: use Call and Result.F64.
func (i *Instance) InvokeF64(name string, args ...uint64) (float64, error) {
	res, err := i.Call(context.Background(), name, args)
	if err != nil {
		return 0, err
	}
	return res.F64(name)
}

// Memory exposes the guest linear memory. The view can be written at
// any time, so a pooled instance that hands it out pays a whole-memory
// restore at every later checkin (see exec.Instance.Memory).
func (i *Instance) Memory() []byte { return i.inst.Memory() }

// Counter exposes the lowered-code event counter for timing analysis.
func (i *Instance) Counter() *arch.Counter { return i.inst.Counter() }

// Allocator exposes the hardened allocator (nil if the module declares
// no memory).
func (i *Instance) Allocator() *alloc.Allocator { return i.alloc }

// Raw exposes the underlying engine instance.
func (i *Instance) Raw() *exec.Instance { return i.inst }

// Close retires the instance, returning its sandbox tag to the process
// allocator (§6.4 tag budget). Pooled instances are closed by their
// Engine; call this only for instances created via Runtime.Instantiate.
func (i *Instance) Close() error { return i.inst.Close() }

// envHostModules builds the small env host surface MiniC programs use,
// in both the wasm64 ("env") and ILP32 wasm32 ("env32") ABI variants,
// on the typed adapters (print_str's Str parameter is the (ptr, len)
// pair read through the bounds-checked Memory view). The print
// functions write to stdout, or nowhere when it is nil.
func envHostModules(stdout io.Writer) []*exec.HostModule {
	build := func(hm *exec.HostModule) *exec.HostModule {
		exec.Func1(hm, "sqrt", func(_ *exec.HostContext, x float64) (float64, error) {
			return math.Sqrt(x), nil
		})
		exec.Void1(hm, "print_double", func(_ *exec.HostContext, v float64) error {
			if stdout != nil {
				fmt.Fprintf(stdout, "%g\n", v)
			}
			return nil
		})
		exec.Void1(hm, "print_str", func(_ *exec.HostContext, s exec.Str) error {
			if stdout != nil {
				fmt.Fprintf(stdout, "%s", string(s))
			}
			return nil
		})
		exec.Void1(hm, "sink", func(_ *exec.HostContext, _ exec.Ptr) error { return nil })
		return hm
	}
	env := build(exec.NewHostModule("env"))
	exec.Void1(env, "print_long", func(_ *exec.HostContext, v int64) error {
		if stdout != nil {
			fmt.Fprintf(stdout, "%d\n", v)
		}
		return nil
	})
	env32 := build(exec.NewHostModule("env32").Ptr32())
	exec.Void1(env32, "print_long", func(_ *exec.HostContext, v int32) error {
		if stdout != nil {
			fmt.Fprintf(stdout, "%d\n", v)
		}
		return nil
	})
	return []*exec.HostModule{env, env32}
}

// Trap classification helpers for embedders.

// IsMemorySafetyViolation reports a spatial/temporal violation caught by
// MTE (tag mismatch) or by a segment instruction (double free, invalid
// segment).
func IsMemorySafetyViolation(err error) bool {
	var t *exec.Trap
	if errors.As(err, &t) {
		return t.Code == exec.TrapTagMismatch || t.Code == exec.TrapSegment
	}
	// Host-side allocator violations (invalid/double free) surface as
	// host traps wrapping alloc errors.
	return errors.Is(err, alloc.ErrInvalidFree)
}

// IsSandboxViolation reports an attempted sandbox escape.
func IsSandboxViolation(err error) bool {
	var t *exec.Trap
	if errors.As(err, &t) {
		return t.Code == exec.TrapOutOfBounds || t.Code == exec.TrapTagMismatch
	}
	return false
}

// IsAuthFailure reports a failed pointer authentication.
func IsAuthFailure(err error) bool {
	var t *exec.Trap
	return errors.As(err, &t) && t.Code == exec.TrapAuthFailure
}
