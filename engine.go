package cage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cage/internal/core"
	"cage/internal/engine"
)

// Engine is the scalable front end to the toolchain and runtime: one
// process-wide compiled-module cache plus one recycled-instance pool
// per module, behind a concurrency-safe invocation API.
//
// Where Toolchain and Runtime pay compilation, validation, lowering,
// and whole-memory tagging (§7.2) on every CompileSource/Instantiate,
// an Engine pays them once per (source, Config) pair and then serves
// invocations from pooled instances that are reset — memory re-zeroed,
// MTE tags re-seeded, PAC modifier rotated — between checkouts; all
// instances of a module share one cached lowered program. Live
// instances are bounded by the §7.4 sandbox-tag budget: per-module
// invocation bursts queue instead of exhausting tags, when several
// modules compete for the budget spawning reclaims idle sibling
// instances, and when every tag is held by an in-flight invocation of
// another module the checkout queues until a tag is released or an
// instance is checked in — Call never surfaces
// core.ErrSandboxesExhausted under a plain budget.
// EnableExtendedSandboxes lifts the budget entirely.
//
//	eng := cage.NewEngine(cage.FullHardening())
//	mod, err := eng.CompileSource(src)
//	res, err := eng.Call(ctx, mod, "sum", []uint64{100}) // safe from many goroutines
type Engine struct {
	cfg Config
	tc  *Toolchain
	rt  *Runtime

	modules engine.Cache[*Module]
	pools   engine.PoolSet

	// Snapshot subsystem (snapshot.go): snapshots memoizes frozen
	// post-initialization images keyed by (module hash, config, init
	// spec); active maps each module to the image its pool currently
	// forks from — the automatic post-start baseline until an explicit
	// Engine.Snapshot replaces it. The map is immutable and republished
	// under snapMu on change, so the per-reset read (every pool checkin
	// forks from it) is a lock-free pointer load. autoSnapshotOff
	// disables the baseline capture (SetAutoSnapshot).
	snapshots       engine.SnapshotCache[*Snapshot]
	snapMu          sync.Mutex
	active          atomic.Pointer[map[*Module]*Snapshot]
	autoSnapshotOff atomic.Bool

	// idle broadcasts instance checkins to spawns queued on the shared
	// tag budget (a Release alone never fires for a tag that moved to a
	// sibling pool's idle list). The channel rides an atomic pointer so
	// the checkin hot path pays one load when nobody is queued, never a
	// mutex.
	idleCh atomic.Pointer[chan struct{}]
}

// NewEngine creates an engine for the configuration. The zero pool
// limit is derived from the configuration's sandbox-tag budget (15 for
// sandboxing alone, 1 when MTE also carries memory safety, unlimited
// without sandboxing, paper §6.4).
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg, tc: NewToolchain(cfg), rt: NewRuntime(cfg)}
	// The set is fresh — no pool exists yet, so the limit always takes.
	_ = e.pools.SetLimit(poolBudget(cfg))
	// All pools draw reset seeds from the runtime's instantiation
	// counter: every instance lifetime in the process — fresh or
	// recycled, any module — gets a unique PAC modifier (§6.3).
	e.pools.NextSeed = func() uint64 { return e.rt.seed.Add(1) }
	return e
}

// poolBudget maps a configuration to the per-module live-instance cap.
func poolBudget(cfg Config) int {
	pol := core.NewPolicy(cfg.features())
	if cfg.Sandboxing && pol.MaxSandboxes <= 1<<20 {
		return pol.MaxSandboxes
	}
	return 0 // not tag-limited
}

// Runtime exposes the engine's process-level runtime (PAC key, sandbox
// allocator, stdio routing).
func (e *Engine) Runtime() *Runtime { return e.rt }

// NewHostModule creates an embedder host module named name and
// registers it with the engine: every module instantiated by this
// engine can import its functions. Define functions with the typed
// adapters (HostFunc1, HostVoid2, ...) or the raw Func slot; a module
// named "env" extends the built-in env surface, which is where MiniC
// extern declarations resolve.
//
// Like the other configuration methods, it must be called before the
// engine's first Call of any module; afterwards it fails with
// ErrEngineStarted (the host surface is frozen so resolved import
// tables can be shared by pooled instances).
func (e *Engine) NewHostModule(name string) (*HostModule, error) {
	return e.rt.NewHostModule(name)
}

// ErrEngineStarted is returned by configuration methods called after
// the engine has served its first invocation: pool parameters are fixed
// once the first pool exists, so late mutation would race with (and be
// silently ignored by) in-flight checkouts. The check shares the pool
// set's lock with pool creation, so a configuration call racing the
// first Call either takes effect or fails — never silently neither.
var ErrEngineStarted = errors.New("cage: engine already served an invocation; configure it before the first Call")

// EnableExtendedSandboxes lifts the 15-sandbox limit via §6.4 tag reuse
// and removes the pool cap it implies. It must be called before the
// first Call of any module; afterwards it fails with ErrEngineStarted.
func (e *Engine) EnableExtendedSandboxes() error {
	if err := e.pools.SetLimit(0); err != nil {
		return ErrEngineStarted
	}
	e.rt.EnableExtendedSandboxes()
	return nil
}

// SetPoolLimit overrides the per-module live-instance cap (0 =
// unlimited). It must be called before the first Call of any module;
// afterwards it fails with ErrEngineStarted (a pool built under the old
// cap would never observe the new one).
func (e *Engine) SetPoolLimit(n int) error {
	if err := e.pools.SetLimit(n); err != nil {
		return ErrEngineStarted
	}
	return nil
}

// cacheVariant encodes everything besides the source that influences
// compilation, so distinct configurations never share a cache entry.
func (c Config) cacheVariant() string {
	return fmt.Sprintf("w64=%t ms=%t sb=%t pa=%t sh=%t",
		c.Wasm64, c.MemorySafety, c.Sandboxing, c.PointerAuth, c.SpectreHarden)
}

// CompileSource compiles a MiniC translation unit, memoizing on the
// source hash and configuration: recompiling identical source is O(1),
// and concurrent first compilations collapse into one (singleflight).
func (e *Engine) CompileSource(src string) (*Module, error) {
	key := engine.KeyOfString(src, "minicc|"+e.cfg.cacheVariant())
	return e.modules.GetOrBuild(key, func() (*Module, error) {
		return e.tc.CompileSource(src)
	})
}

// DecodeModule parses and validates a binary module image, memoized on
// the image hash (decoding is configuration-independent).
func (e *Engine) DecodeModule(bin []byte) (*Module, error) {
	key := engine.KeyOf(bin, "decode")
	return e.modules.GetOrBuild(key, func() (*Module, error) {
		return DecodeModule(bin)
	})
}

// pooledInstance adapts a linked Instance (interpreter instance plus
// hardened allocator) to the pool's Resetter protocol. It carries the
// engine and module so a reset can fork from the module's currently
// registered snapshot — including one registered after this instance
// spawned (an Engine.Snapshot with an init function upgrades in-flight
// instances at their next checkin). pool is the pool it was last
// checked out of (set by Engine.checkout): checkin goes straight back
// to it, so an Engine.Close that unpublishes the pool table mid-call
// still gets the instance closed and its tag released by Pool.Put.
type pooledInstance struct {
	i    *Instance
	eng  *Engine
	mod  *Module
	pool *engine.Pool
}

func (p *pooledInstance) Reset(seed uint64) error {
	// Fast path: fork from the registered snapshot — one restore helper
	// (Instance.restoreFrom) shared with snapshot-based spawning, so
	// the image is the only initialization story.
	if s := p.eng.activeSnapshot(p.mod); s != nil {
		if err := p.i.restoreFrom(s, seed); err == nil {
			p.eng.snapshots.NoteRestore(p.i.inst.RestoredPages())
			return nil
		}
		// An image that cannot restore (e.g. the kernel refused to
		// recommit a guard reservation) falls through to the full replay
		// below rather than poisoning the pool.
	}
	// Full replay, same order as a fresh instantiation: restore state,
	// rewind the allocator, then run the start function — which may
	// itself allocate through the (now empty) heap.
	if err := p.i.inst.ResetState(seed); err != nil {
		return err
	}
	if p.i.alloc != nil {
		p.i.alloc.Reset()
	}
	return p.i.inst.RunStart()
}

func (p *pooledInstance) Close() error { return p.i.inst.Close() }

// checkin returns the instance to the pool it was checked out of and
// signals spawns queued on the tag budget. It allocates nothing: the
// no-waiter notify is one atomic load.
func (p *pooledInstance) checkin() {
	p.pool.Put(p)
	p.eng.notifyIdle()
}

// notifyIdle wakes spawns queued on the tag budget after a checkin.
func (e *Engine) notifyIdle() {
	if e.idleCh.Load() == nil {
		return // nobody queued: the common case, one atomic load
	}
	if ch := e.idleCh.Swap(nil); ch != nil {
		close(*ch)
	}
}

// idleWait returns a channel closed at the next checkin.
func (e *Engine) idleWait() <-chan struct{} {
	for {
		if ch := e.idleCh.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if e.idleCh.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// pool returns (creating on first use) the instance pool for m.
//
// The spawn path handles cross-module tag pressure: when pools of
// several modules compete for one §7.4 tag budget, another module's
// idle instances may pin every tag. Rather than failing, spawning
// reclaims one idle sibling instance (closing it frees its tag) and
// retries. When even that fails — every tag is held by an in-flight
// invocation — the spawn queues until the allocator releases a tag
// (the condition AcquireContext waits on) or any pool checks an
// instance in, then retries, so Engine.Call queues across modules on
// §7.4 exhaustion instead of surfacing core.ErrSandboxesExhausted.
// The queued wait honors the checkout's context, so a caller with a
// deadline abandons the queue cleanly without holding any tag.
func (e *Engine) pool(m *Module) *engine.Pool {
	// Steady state: the pool exists and Lookup finds it lock-free, so
	// the per-call cost is a map read — no mutex, no spawn-closure
	// allocation.
	if p, ok := e.pools.Lookup(m); ok {
		return p
	}
	return e.pools.For(m, func(ctx context.Context) (engine.Resetter, error) {
		// released and idle are the wake-ups of a queued spawn, nil until
		// it has registered for them.
		var released, idle <-chan struct{}
		for {
			var inst *Instance
			var err error
			if snap := e.activeSnapshot(m); snap != nil {
				// Fork the new instance straight from the registered
				// image: no data-segment replay, no whole-memory
				// tagging, no start/init execution.
				inst, err = e.rt.instantiate(m, snap)
				if err == nil {
					e.snapshots.NoteRestore(inst.inst.RestoredPages())
				}
			} else {
				inst, err = e.rt.Instantiate(m)
				if err == nil && !e.autoSnapshotOff.Load() {
					// First spawn: freeze this pristine post-start state
					// as the image every later spawn and reset forks
					// from.
					e.captureBaseline(m, inst)
				}
			}
			if err == nil {
				return &pooledInstance{i: inst, eng: e, mod: m}, nil
			}
			if !errors.Is(err, core.ErrSandboxesExhausted) {
				return nil, err
			}
			if e.pools.ReclaimIdle(1) > 0 {
				continue
			}
			if released == nil {
				// Register, then look once more: a checkin or a release
				// that lands between the failed look above and the wait
				// below would otherwise wake nobody — with every other
				// caller done, for good.
				released, idle = e.rt.sandboxes.Released(), e.idleWait()
				continue
			}
			select {
			case <-released:
			case <-idle:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			released, idle = nil, nil
		}
	})
}

// checkout takes an instance of m out of its pool (spawning or queueing
// under ctx as the pool dictates) and records the pool on it for
// checkin.
func (e *Engine) checkout(ctx context.Context, m *Module) (*pooledInstance, error) {
	p := e.pool(m)
	r, err := p.GetContext(ctx)
	if err != nil {
		return nil, err
	}
	pi := r.(*pooledInstance)
	pi.pool = p
	return pi, nil
}

// WithInstance checks an instance of m out of the pool, runs f, and
// checks it back in (resetting it). Use it when an invocation needs
// more than Call offers — staging input in guest memory, reading
// results back, multiple calls against one live state. It is
// WithInstanceContext with a background context.
func (e *Engine) WithInstance(m *Module, f func(inst *Instance) error) error {
	return e.WithInstanceContext(context.Background(), m, f)
}

// WithInstanceContext is WithInstance under a context: a checkout
// queued on the live cap or on the §7.4 tag budget is abandoned with
// ctx (returning ctx.Err()), releasing nothing it did not own. The
// context only governs the checkout — pass it to Instance.Call as well
// to bound the invocation itself.
func (e *Engine) WithInstanceContext(ctx context.Context, m *Module, f func(inst *Instance) error) error {
	pi, err := e.checkout(ctx, m)
	if err != nil {
		return err
	}
	defer pi.checkin()
	return f(pi.i)
}

// EngineStats aggregates the engine's cache and pool counters.
type EngineStats struct {
	Cache     engine.CacheStats
	Programs  engine.CacheStats
	Snapshots engine.SnapshotCacheStats
	Pools     engine.PoolStats
}

// Stats snapshots the module cache, the lowered-program cache, the
// snapshot cache, and the (summed) per-module pools.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Cache:     e.modules.Stats(),
		Programs:  e.rt.ProgramCacheStats(),
		Snapshots: e.SnapshotStats(),
		Pools:     e.pools.Stats(),
	}
}

// DispatchMode reports the runtime's execution tier; see
// Runtime.DispatchMode.
func (e *Engine) DispatchMode() (memory, fusion string) { return e.rt.DispatchMode() }

// PoolStatsFor snapshots the instance pool serving one module (zero
// stats before the module's first checkout). Engine.Stats sums every
// pool; a multi-module embedder (the serve daemon) uses this to report
// occupancy per module.
func (e *Engine) PoolStatsFor(m *Module) engine.PoolStats {
	stats, _ := e.pools.StatsFor(m)
	return stats
}

// Close retires every pooled instance, returning their sandbox tags.
// The engine must not be used afterwards.
func (e *Engine) Close() { e.pools.Close() }
