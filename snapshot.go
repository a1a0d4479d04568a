package cage

import (
	"context"
	"encoding/binary"
	"fmt"

	"cage/internal/alloc"
	"cage/internal/engine"
	"cage/internal/exec"
	"cage/internal/wasi"
)

// Snapshot is a frozen post-initialization image of a module under this
// engine's configuration: the instance state (memory, globals, table,
// MTE tags, PAC keys) paired with the hardened allocator's heap
// bookkeeping and the WASI clock and random state, captured after the module's start function — and
// optionally a named init function (Wizer-style pre-initialization) —
// ran once under the normal meter chain. Instances forked from a
// snapshot (pool checkouts, NewFromSnapshot) start in that state
// without re-running any of it.
//
// Snapshots are immutable and safe to fork from concurrently.
type Snapshot struct {
	mod      *Module
	exec     *exec.Snapshot
	heap     alloc.HeapState // zero for a module without an allocator
	wasi     wasi.State
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

// key is the image-cache key of the init spec within one module's
// record: the init function's name, length-prefixed, then its
// arguments' bytes. The empty spec is the post-start image's key.
func (st snapshotSettings) key() engine.Key {
	v := binary.LittleEndian.AppendUint64(nil, uint64(len(st.initFn)))
	v = append(v, st.initFn...)
	for _, a := range st.initArgs {
		v = binary.LittleEndian.AppendUint64(v, a)
	}
	return engine.Key{Variant: string(v)}
}

// Snapshot captures (memoized per module and init spec) a
// post-initialization image of m: it instantiates the module once —
// running its start function and, with WithInit, the named init
// function under the normal meter chain — freezes the result in m's
// record, and registers it as the image the module's instance pool forks
// from. Subsequent calls with the same arguments return the cached image
// without executing anything, and register it again.
//
// ctx bounds the one-time build (the instantiation may queue on the
// §7.4 tag budget, and the init call honors it like any Call).
func (e *Engine) Snapshot(ctx context.Context, m *Module, opts ...SnapshotOption) (*Snapshot, error) {
	var st snapshotSettings
	for _, o := range opts {
		o(&st)
	}
	rec := e.record(m)
	s, err := rec.images.GetOrBuild(st.key(), func() (*Snapshot, error) {
		return rec.buildSnapshot(ctx, m, st)
	})
	if err != nil {
		return nil, err
	}
	rec.image.Store(s)
	return s, nil
}

// buildSnapshot instantiates m from the record's inputs, runs the
// optional init, captures the image and registers it. The builder
// instance is a fresh birth under the tag budget like a pool spawn's
// (Engine.birth), and is closed only after the image is registered, so
// a spawn queued on the tag it returns forks the new image.
func (rec *modulePool) buildSnapshot(ctx context.Context, m *Module, st snapshotSettings) (*Snapshot, error) {
	if rec.prepErr != nil {
		return nil, rec.prepErr
	}
	inst, err := rec.eng.birth(ctx, m, rec.in, false)
	if err != nil {
		return nil, err
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
	s, err := snapshotOf(m, inst, st.initFn, fuel)
	if err != nil {
		return nil, err
	}
	rec.image.Store(s)
	return s, nil
}

// snapshotOf freezes inst (instance state, heap bookkeeping, WASI
// state) into a Snapshot for m.
func snapshotOf(m *Module, inst *Instance, initFn string, initFuel uint64) (*Snapshot, error) {
	es, err := inst.inst.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{mod: m, exec: es, wasi: inst.wasi.State(), initFn: initFn, initFuel: initFuel}
	if inst.alloc != nil {
		s.heap = inst.alloc.Snapshot()
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
	inst, err := e.rt.newInstance(s.mod, s)
	if err != nil {
		return nil, err
	}
	e.noteRestore(inst.inst.RestoredPages())
	return inst, nil
}

// restoreFrom rewinds a live instance to the snapshot: the pooled reset
// (the exec layer's RestoreFromSnapshot plus the allocator's
// bookkeeping and the WASI state).
func (i *Instance) restoreFrom(s *Snapshot, seed uint64) error {
	if err := i.inst.RestoreFromSnapshot(s.exec, seed); err != nil {
		return err
	}
	i.wasi.Restore(s.wasi)
	if i.alloc != nil {
		i.alloc.Restore(s.heap)
	}
	return nil
}

// captureBaseline freezes a just-instantiated (pristine, post-start)
// instance as the module's automatic fork image, so even modules that
// never see an explicit Engine.Snapshot get dirty-page pool resets. It
// registers the image only while the record has none, so it never
// displaces an explicit Engine.Snapshot that landed first. It registers
// no image whose start function signed a pointer: every fork of that
// image would share its PAC modifier (§6.3), which only an explicit
// Engine.Snapshot opts into. Without an image — that case, or a failed
// capture — each checkin discards the instance and the next checkout is
// a fresh birth.
func (rec *modulePool) captureBaseline(m *Module, inst *Instance) {
	if rec.image.Load() != nil {
		return
	}
	s, err := rec.images.GetOrBuild(snapshotSettings{}.key(), func() (*Snapshot, error) {
		return snapshotOf(m, inst, "", 0)
	})
	if err != nil || s.exec.SignedPointers() {
		return
	}
	rec.image.CompareAndSwap(nil, s)
}

// noteRestore records one fork served from an image: pages is the
// number of pages an in-place restore rewrote, or negative for a
// whole-image install.
func (e *Engine) noteRestore(pages int) {
	e.restores.Add(1)
	switch {
	case pages < 0:
		e.fullInstalls.Add(1)
	case pages > 0:
		e.restoredPages.Add(uint64(pages))
	}
}

// SnapshotStats snapshots the engine's image counters: image-cache
// hits/misses/entries summed over its modules, plus the number of forks
// served from images, how many of them installed a whole image, how many
// pages the others rewrote in place, and — process-wide, not per engine
// — how many instance births ran on a retired instance's storage and how
// many on newly made storage.
func (e *Engine) SnapshotStats() engine.SnapshotCacheStats {
	st := engine.SnapshotCacheStats{
		Restores:      e.restores.Load(),
		RestoredPages: e.restoredPages.Load(),
		FullInstalls:  e.fullInstalls.Load(),
	}
	for _, rec := range e.records() {
		cs := rec.images.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Entries += cs.Entries
	}
	st.BirthsRecycled, st.BirthsFresh = exec.BirthStats()
	return st
}

// RestoreMode is the constant "copy": there is one way to install an
// image into an instance that does not hold it yet — pristine storage
// plus a copy of the image's written pages. It remains for the one
// caller that cannot be edited with the rest (benchmark/main.go's env
// block; ROADMAP, "Unblock the parked deletions").
func (e *Engine) RestoreMode() string { return "copy" }
