package cage

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cage/internal/core"
	"cage/internal/engine"
)

// Engine is the scalable front end to the toolchain and runtime: one
// process-wide compiled-module cache plus one record per module, behind
// a concurrency-safe invocation API.
//
// Where a Toolchain pays compilation on every CompileSource and a
// Runtime whole-memory tagging (§7.2) on every Instantiate, an Engine
// pays them once per source and then serves invocations from pooled
// instances that are restored to the module's image — the pages a call
// wrote rewritten, MTE tag randomness re-seeded, PAC modifier rotated —
// between checkouts; all instances of a module share one cached lowered
// program. Live
// instances are bounded by the §7.4 sandbox-tag budget: per-module
// invocation bursts queue instead of exhausting tags, when several
// modules compete for the budget spawning reclaims idle sibling
// instances, and when every tag is held by an in-flight invocation of
// another module the checkout queues until a tag is released or an
// instance is checked in — Call never surfaces
// core.ErrSandboxesExhausted under a plain budget.
// Config.ExtendedSandboxes lifts the budget entirely.
//
//	eng := cage.NewEngine(cage.FullHardening())
//	mod, err := eng.CompileSource(src)
//	res, err := eng.Call(ctx, mod, "sum", []uint64{100}) // safe from many goroutines
type Engine struct {
	cfg Config
	tc  *Toolchain
	rt  *Runtime

	modules engine.Cache[*Module]

	// recs maps each module the engine has pooled to its record (pool,
	// birth inputs, fork image). The map is immutable and republished
	// under mu when a record is added, so the per-call lookup is a
	// lock-free pointer load; closed, also under mu, keeps Close from
	// racing a new record.
	recs   atomic.Pointer[map[*Module]*modulePool]
	mu     sync.Mutex
	closed bool

	// Restore accounting for SnapshotStats: forks served from an image,
	// the pages in-place restores rewrote, and whole-image installs.
	restores, restoredPages, fullInstalls atomic.Uint64

	// idle broadcasts instance checkins to spawns queued on the shared
	// tag budget (a Release alone never fires for a tag that moved to a
	// sibling pool's idle stack). The channel rides an atomic pointer so
	// the checkin hot path pays one load when nobody is queued, never a
	// mutex.
	idleCh atomic.Pointer[chan struct{}]
}

// modulePool is everything an engine keeps for one *Module: the pool of
// its instances, the inputs every birth shares (resolved once, when the
// record is made), the image resets and spawns fork from, and the images
// Engine.Snapshot memoizes per init spec. Keying all of it by the module
// pointer means an image only ever reaches instances of the module it
// was captured from.
type modulePool struct {
	eng     *Engine
	pool    *engine.Pool
	in      prepared
	prepErr error

	// image is what the pool forks from: the automatic post-start
	// baseline until an explicit Engine.Snapshot replaces it; nil while
	// there is none. images memoizes every captured image by init spec.
	image  atomic.Pointer[Snapshot]
	images engine.Cache[*Snapshot]
}

// NewEngine creates an engine for the configuration. Each module's pool
// is capped at the configuration's sandbox-tag budget (15 for
// sandboxing alone, 1 when MTE also carries memory safety, unlimited
// without sandboxing or with extended sandboxes, paper §6.4).
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, tc: NewToolchain(cfg), rt: NewRuntime(cfg)}
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
// allocator, host surface).
func (e *Engine) Runtime() *Runtime { return e.rt }

// CompileSource compiles a MiniC translation unit, memoizing on the
// source hash (the engine's Config is fixed, so it is the whole key):
// recompiling identical source is O(1), and concurrent first
// compilations collapse into one (singleflight).
func (e *Engine) CompileSource(src string) (*Module, error) {
	return e.modules.GetOrBuild(engine.KeyOfString(src, "minicc"), func() (*Module, error) {
		return e.tc.CompileSource(src)
	})
}

// DecodeModule parses and validates a binary module image, memoized on
// the image hash (decoding is configuration-independent).
func (e *Engine) DecodeModule(bin []byte) (*Module, error) {
	return e.modules.GetOrBuild(engine.KeyOf(bin, "decode"), func() (*Module, error) {
		return DecodeModule(bin)
	})
}

// pooledInstance adapts a linked Instance (interpreter instance plus
// hardened allocator) to the pool's Resetter protocol. rec, set at
// spawn, is its module's record: a reset forks from the record's image
// as it is at that moment — including one registered after this
// instance spawned (an Engine.Snapshot with an init function upgrades
// in-flight instances at their next checkin) — and checkin goes
// straight back to the record's pool, so an Engine.Close mid-call still
// gets the instance closed and its tag released by Pool.Put.
type pooledInstance struct {
	i   *Instance
	rec *modulePool
}

// errNoImage fails the reset of an instance whose module has no
// registered image (see captureBaseline): the pool discards it, and the
// next checkout is a fresh birth.
var errNoImage = errors.New("cage: no image to reset the instance to")

// Reset restores the module's registered image — the one way back to a
// known state. Without an image, or when the restore fails (say the
// kernel refused to recommit a guard reservation), it returns the error
// and the pool closes the instance instead of recycling it.
func (p *pooledInstance) Reset(seed uint64) error {
	s := p.rec.image.Load()
	if s == nil {
		return errNoImage
	}
	if err := p.i.restoreFrom(s, seed); err != nil {
		return err
	}
	p.rec.eng.noteRestore(p.i.inst.RestoredPages())
	return nil
}

func (p *pooledInstance) Close() error { return p.i.inst.Close() }

// checkin returns the instance to its pool and signals spawns queued on
// the tag budget. It allocates nothing: the no-waiter notify is one
// atomic load.
func (p *pooledInstance) checkin() {
	p.rec.pool.Put(p)
	p.rec.eng.notifyIdle()
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

// records returns the published module → record table (nil before the
// first record).
func (e *Engine) records() map[*Module]*modulePool {
	if recs := e.recs.Load(); recs != nil {
		return *recs
	}
	return nil
}

// record returns m's record, making it on first use: the module's
// import table and program are resolved here, once, so a spawn neither
// hashes nor looks anything up in a cache. A spawn is a birth under the
// tag budget that forks from the record's image; the first, fresh one
// captures that image. On a closed engine the record is not kept and its
// pool fails every checkout with engine.ErrPoolClosed.
func (e *Engine) record(m *Module) *modulePool {
	// Steady state: the record exists and the lookup is a lock-free map
	// read — no mutex, no allocation.
	if rec := e.records()[m]; rec != nil {
		return rec
	}
	in, prepErr := e.rt.prepare(m)
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec := e.records()[m]; rec != nil {
		return rec
	}
	rec := &modulePool{eng: e, in: in, prepErr: prepErr}
	rec.pool = engine.NewPool(poolBudget(e.cfg), e.rt.nextSeed, func(ctx context.Context) (engine.Resetter, error) {
		return rec.spawn(ctx, m)
	})
	if e.closed {
		rec.pool.Close()
		return rec
	}
	next := make(map[*Module]*modulePool, len(e.records())+1)
	for k, v := range e.records() {
		next[k] = v
	}
	next[m] = rec
	e.recs.Store(&next)
	return rec
}

// spawn gives birth to an instance of m for the record's pool, forking
// the record's image when there is one and capturing it otherwise.
func (rec *modulePool) spawn(ctx context.Context, m *Module) (engine.Resetter, error) {
	if rec.prepErr != nil {
		return nil, rec.prepErr
	}
	inst, err := rec.eng.birth(ctx, m, rec.in, true)
	if err != nil {
		return nil, err
	}
	rec.captureBaseline(m, inst)
	return &pooledInstance{i: inst, rec: rec}, nil
}

// birth instantiates m from its prepared inputs under the §7.4 tag
// budget: with fork set, from the image of m's record when there is one
// (read once the attempt holds its tag, so an Engine.Snapshot that lands
// while the birth queues is the image it forks) — no data-segment
// replay, no whole-memory tagging, no start/init execution — and fresh
// otherwise. It is the one loop over core.ErrSandboxesExhausted; the
// pool spawn and the snapshot build both go through it.
//
// An attempt takes the tag before anything else, so one that meets an
// exhausted budget costs an allocator lock: nothing is allocated, hashed
// or looked up. A birth that gets its tag then pays for the instance
// alone: its Go objects, storage recycled from a retired instance, and
// the image's spans. Validation, linking and lowering were paid once per
// module (Runtime.prepare), never per spawn.
//
// When pools of several modules compete for one tag budget, another
// module's idle instances may pin every tag. Rather than failing, the
// birth reclaims one idle sibling instance (closing it frees its tag)
// and retries. When even that fails — every tag is held by an
// in-flight invocation — it queues until the allocator releases a tag
// (SandboxAllocator.Released) or any pool checks an
// instance in, then retries, so Engine.Call and Engine.Snapshot queue
// across modules on §7.4 exhaustion instead of surfacing
// core.ErrSandboxesExhausted. The queued wait honors ctx, so a caller
// with a deadline abandons the queue cleanly without holding any tag.
func (e *Engine) birth(ctx context.Context, m *Module, in prepared, fork bool) (*Instance, error) {
	// released and idle are the wake-ups of a queued birth, nil until it
	// has registered for them.
	var released, idle <-chan struct{}
	for {
		tag, err := e.rt.acquireTag()
		if err == nil {
			var snap *Snapshot
			if rec := e.records()[m]; fork && rec != nil {
				snap = rec.image.Load()
			}
			inst, err := e.rt.instantiate(m, in, snap, tag)
			if err != nil {
				return nil, err
			}
			if snap != nil {
				e.noteRestore(inst.inst.RestoredPages())
			}
			return inst, nil
		}
		if !errors.Is(err, core.ErrSandboxesExhausted) {
			return nil, err
		}
		if e.reclaimOne() {
			continue
		}
		if released == nil {
			// Register, then look once more: a checkin or a release that
			// lands between the failed look above and the wait below
			// would otherwise wake nobody — with every other caller
			// done, for good.
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
}

// checkout takes an instance of m out of its pool, spawning or queueing
// under ctx as the pool dictates.
func (e *Engine) checkout(ctx context.Context, m *Module) (*pooledInstance, error) {
	r, err := e.record(m).pool.GetContext(ctx)
	if err != nil {
		return nil, err
	}
	return r.(*pooledInstance), nil
}

// reclaimOne closes one idle instance of any module, freeing its
// sandbox tag, and reports whether there was one. It allocates nothing.
func (e *Engine) reclaimOne() bool {
	for _, rec := range e.records() {
		if rec.pool.ReclaimOne() {
			return true
		}
	}
	return false
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
// snapshot images, and the (summed) per-module pools.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Cache:     e.modules.Stats(),
		Programs:  e.rt.ProgramCacheStats(),
		Snapshots: e.SnapshotStats(),
	}
	for _, rec := range e.records() {
		ps := rec.pool.Stats()
		st.Pools.Spawned += ps.Spawned
		st.Pools.Recycled += ps.Recycled
		st.Pools.Discarded += ps.Discarded
		st.Pools.Idle += ps.Idle
		st.Pools.Live += ps.Live
	}
	return st
}

// DispatchMode reports the runtime's execution tier; see
// Runtime.DispatchMode.
func (e *Engine) DispatchMode() (memory, fusion string) { return e.rt.DispatchMode() }

// PoolStatsFor snapshots the instance pool serving one module (zero
// stats before the module's first checkout). Engine.Stats sums every
// pool; a multi-module embedder (the serve daemon) uses this to report
// occupancy per module.
func (e *Engine) PoolStatsFor(m *Module) engine.PoolStats {
	if rec := e.records()[m]; rec != nil {
		return rec.pool.Stats()
	}
	return engine.PoolStats{}
}

// Close retires every pooled instance, returning their sandbox tags;
// instances checked out are closed as they come back, and a later
// checkout fails with engine.ErrPoolClosed. The engine must not be used
// afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	for _, rec := range e.records() {
		rec.pool.Close()
	}
}
