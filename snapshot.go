package cage

import (
	"context"
	"errors"
	"fmt"

	"cage/internal/alloc"
	"cage/internal/core"
	"cage/internal/engine"
	"cage/internal/exec"
)

// Snapshot is a frozen post-initialization image of a module under this
// engine's configuration: the instance state (memory, globals, table,
// MTE tags, PAC keys) paired with the hardened allocator's heap
// bookkeeping, captured after the module's start function — and
// optionally a named init function (Wizer-style pre-initialization) —
// ran once under the normal meter chain. Instances forked from a
// snapshot (pool checkouts, NewFromSnapshot) start in that state
// without re-running any of it.
//
// Snapshots are immutable and safe to fork from concurrently.
type Snapshot struct {
	mod      *Module
	exec     *exec.Snapshot
	heap     alloc.HeapState
	hasHeap  bool
	initFn   string
	initFuel uint64
}

// Module returns the module the snapshot images.
func (s *Snapshot) Module() *Module { return s.mod }

// InitFunction returns the init function the snapshot ran, "" for a
// plain post-start image.
func (s *Snapshot) InitFunction() string { return s.initFn }

// InitFuel returns the fuel the one-time init call consumed — the cost
// every fork skips. It is what a metering embedder (cage-serve) charges
// once at snapshot time instead of per request.
func (s *Snapshot) InitFuel() uint64 { return s.initFuel }

// snapshotSettings collects SnapshotOption state.
type snapshotSettings struct {
	initFn   string
	initArgs []uint64
	callOpts []CallOption
}

// SnapshotOption configures Engine.Snapshot.
type SnapshotOption func(*snapshotSettings)

// WithInit runs the exported function fn(args...) once, after the start
// function, before the image is frozen — the Wizer pre-initialization
// pattern: parse configs, warm caches, allocate long-lived structures
// at snapshot time, then serve every request from the warm fork.
func WithInit(fn string, args ...uint64) SnapshotOption {
	return func(s *snapshotSettings) {
		s.initFn = fn
		s.initArgs = args
	}
}

// WithInitOptions applies per-call options (WithFuel, WithTimeout, ...)
// to the init run, so a hostile init cannot spin forever at snapshot
// time. The fuel it consumes is reported by Snapshot.InitFuel.
func WithInitOptions(opts ...CallOption) SnapshotOption {
	return func(s *snapshotSettings) { s.callOpts = append(s.callOpts, opts...) }
}

// snapKey derives the snapshot cache key: module content hash plus the
// configuration and init spec.
func (e *Engine) snapKey(m *Module, st snapshotSettings) (engine.Key, error) {
	hash, err := m.contentHash()
	if err != nil {
		return engine.Key{}, err
	}
	variant := fmt.Sprintf("snap|%s|init=%s|args=%x", e.cfg.cacheVariant(), st.initFn, st.initArgs)
	return engine.Key{Hash: hash, Variant: variant}, nil
}

// Snapshot captures (memoized on module hash, configuration, and init
// spec) a post-initialization image of m: it instantiates the module
// once — running its start function and, with WithInit, the named init
// function under the normal meter chain — freezes the result in the
// engine's snapshot cache, and registers it as the image the module's
// instance pool forks from. Subsequent calls with the same arguments
// return the cached image without executing anything.
//
// ctx bounds the one-time build (the instantiation may queue on the
// §7.4 tag budget, and the init call honors it like any Call).
func (e *Engine) Snapshot(ctx context.Context, m *Module, opts ...SnapshotOption) (*Snapshot, error) {
	var st snapshotSettings
	for _, o := range opts {
		o(&st)
	}
	key, err := e.snapKey(m, st)
	if err != nil {
		return nil, err
	}
	s, err := e.snapshots.GetOrBuild(key, func() (*Snapshot, error) {
		return e.buildSnapshot(ctx, m, st)
	})
	if err != nil {
		return nil, err
	}
	e.setActiveSnapshot(m, s)
	return s, nil
}

// buildSnapshot instantiates m, runs the optional init, and captures
// the image. The builder instance is closed afterwards, returning its
// sandbox tag; under tag pressure the build reclaims idle pooled
// instances and queues exactly like a pool spawn.
func (e *Engine) buildSnapshot(ctx context.Context, m *Module, st snapshotSettings) (*Snapshot, error) {
	var inst *Instance
	for {
		var err error
		inst, err = e.rt.Instantiate(m)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrSandboxesExhausted) {
			return nil, err
		}
		if e.pools.ReclaimIdle(1) > 0 {
			continue
		}
		select {
		case <-e.rt.sandboxes.Released():
		case <-e.idleWait():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer inst.Close()
	var fuel uint64
	if st.initFn != "" {
		res, err := inst.Call(ctx, st.initFn, st.initArgs, st.callOpts...)
		if err != nil {
			return nil, fmt.Errorf("cage: snapshot init %q: %w", st.initFn, err)
		}
		fuel = res.Fuel
	}
	return snapshotOf(m, inst, st.initFn, fuel)
}

// snapshotOf freezes inst (instance state + heap bookkeeping) into a
// Snapshot for m.
func snapshotOf(m *Module, inst *Instance, initFn string, initFuel uint64) (*Snapshot, error) {
	es, err := inst.inst.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{mod: m, exec: es, initFn: initFn, initFuel: initFuel}
	if inst.alloc != nil {
		s.heap = inst.alloc.Snapshot()
		s.hasHeap = true
	}
	return s, nil
}

// NewFromSnapshot forks a standalone (un-pooled) instance from s: a
// fresh sandbox tag and PAC-keyed identity over the snapshot's memory
// image, without data-segment replay, whole-memory tagging, or
// start/init execution. The caller owns the instance and must Close it;
// for pooled checkouts just use Call — the pool forks from the module's
// registered snapshot automatically.
func (e *Engine) NewFromSnapshot(s *Snapshot) (*Instance, error) {
	if s == nil {
		return nil, fmt.Errorf("cage: NewFromSnapshot of nil snapshot")
	}
	inst, err := e.rt.instantiate(s.mod, s)
	if err != nil {
		return nil, err
	}
	e.snapshots.NoteRestore(inst.inst.RestoredPages())
	return inst, nil
}

// restoreFrom rewinds a live instance to the snapshot: the single
// restore helper the pooled reset path uses (the exec layer's
// RestoreFromSnapshot plus the allocator's bookkeeping).
func (i *Instance) restoreFrom(s *Snapshot, seed uint64) error {
	if err := i.inst.RestoreFromSnapshot(s.exec, seed); err != nil {
		return err
	}
	if i.alloc != nil {
		if s.hasHeap {
			i.alloc.Restore(s.heap)
		} else {
			i.alloc.Reset()
		}
	}
	return nil
}

// activeSnapshot returns the image the module's pool currently forks
// from (nil when none is registered yet). It runs on every pool reset,
// so it is a lock-free read of the published map.
func (e *Engine) activeSnapshot(m *Module) *Snapshot {
	if mp := e.active.Load(); mp != nil {
		return (*mp)[m]
	}
	return nil
}

// publishActiveLocked clones the active map, applies one binding, and
// republishes; replace false preserves an existing binding (the
// first-spawn baseline must not displace an explicit Snapshot that
// landed while the baseline was being captured). Caller holds snapMu.
func (e *Engine) publishActiveLocked(m *Module, s *Snapshot, replace bool) {
	old := e.active.Load()
	n := 1
	if old != nil {
		n += len(*old)
	}
	next := make(map[*Module]*Snapshot, n)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	if _, ok := next[m]; ok && !replace {
		return
	}
	next[m] = s
	e.active.Store(&next)
}

// setActiveSnapshot registers s as the image m's pool forks from,
// replacing the automatic post-start baseline (or an earlier init
// image). Instances already checked out pick it up at their next reset.
func (e *Engine) setActiveSnapshot(m *Module, s *Snapshot) {
	e.snapMu.Lock()
	e.publishActiveLocked(m, s, true)
	e.snapMu.Unlock()
}

// captureBaseline freezes a just-instantiated (pristine, post-start)
// instance as the module's automatic fork image, so even modules that
// never see an explicit Engine.Snapshot get dirty-page pool resets.
// Failures are non-fatal: the pool falls back to full resets.
func (e *Engine) captureBaseline(m *Module, inst *Instance) {
	if e.activeSnapshot(m) != nil {
		return
	}
	key, err := e.snapKey(m, snapshotSettings{})
	if err != nil {
		return
	}
	s, err := e.snapshots.GetOrBuild(key, func() (*Snapshot, error) {
		return snapshotOf(m, inst, "", 0)
	})
	if err != nil {
		return
	}
	e.snapMu.Lock()
	e.publishActiveLocked(m, s, false)
	e.snapMu.Unlock()
}

// SnapshotStats snapshots the engine's snapshot-cache counters: cache
// hits/misses/entries plus the number of forks served from cached
// images, how many of them installed a whole image, how many pages the
// others rewrote in place, and — process-wide, not per engine — how many
// instance births ran on a retired instance's storage and how many on
// newly made storage.
func (e *Engine) SnapshotStats() engine.SnapshotCacheStats {
	st := e.snapshots.Stats()
	st.BirthsRecycled, st.BirthsFresh = exec.BirthStats()
	return st
}

// RestoreMode is the constant "copy": there is one way to install an
// image into an instance that does not hold it yet — pristine storage
// plus a copy of the image's written pages. It remains for the one
// caller that cannot be edited with the rest (benchmark/main.go's env
// block; ROADMAP item 5).
func (e *Engine) RestoreMode() string { return "copy" }

// SetAutoSnapshot enables or disables the automatic post-start baseline
// capture at first pool spawn (enabled by default). Disabling it
// restores the pre-snapshot pool behavior — every reset replays data
// segments, re-tags memory, and re-runs the start function — which is
// mainly useful for measuring that cost. Explicit Engine.Snapshot
// images are honored either way.
func (e *Engine) SetAutoSnapshot(enabled bool) { e.autoSnapshotOff.Store(!enabled) }
