package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Resetter is the unit a Pool recycles. Reset must return the value to
// a known state (seed drives any fresh randomness the new lifetime
// needs) or fail, and the pool discards it; Close releases resources
// held against shared budgets (e.g. the instance's sandbox tag).
type Resetter interface {
	Reset(seed uint64) error
	Close() error
}

// PoolStats is a point-in-time pool counter snapshot.
type PoolStats struct {
	Spawned   uint64 // instances created
	Recycled  uint64 // successful checkins (reset ok)
	Discarded uint64 // instances dropped because reset failed
	Idle      int    // instances ready for checkout
	Live      int    // spawned minus closed (checked out + idle)
}

// Pool recycles instances of one compiled module across invocations.
//
// Checkout (GetContext) prefers an idle instance; otherwise it spawns
// one, unless doing so would exceed the pool's live cap — then it
// queues until a checkin frees one or the context ends, so a caller
// holding a deadline can abandon a contended checkout without leaking
// anything. Checkin (Put) resets the instance before making it visible
// again, so state poisoned by a trapped execution never leaks into the
// next checkout; instances whose reset fails are closed and discarded.
//
// The uncontended checkout/checkin pair is lock-free: idle instances
// live on a Treiber stack (see lifo) and Get/Put exchange them in at
// most two CAS operations each, with the mutex-and-condvar path below
// reserved for spawning, cap exhaustion, and teardown. See the package
// documentation for the full concurrency model.
//
// All methods are safe for concurrent use.
type Pool struct {
	spawn func(ctx context.Context) (Resetter, error)

	// nextSeed supplies the reset seed for each checkin. Pools sharing
	// a process (one PAC key) share one seed source so no two instance
	// lifetimes — across any pool — derive the same PAC modifier (§6.3).
	nextSeed func() uint64

	// fast is the lock-free idle stack.
	fast *lifo

	// waiters counts checkouts registered on the condvar and not yet
	// woken. A lock-free Put broadcasts only when it observes one, so
	// the empty-queue steady state pays an atomic load, not a lock.
	waiters atomic.Int32

	// closedHint mirrors closed for the lock-free paths; authoritative
	// state is still closed, under mu.
	closedHint atomic.Bool

	// Monotonic counters and gauges, atomic so Stats never touches mu.
	// liveN is written only under mu (the fast stack keeps its own
	// size); spawned/recycled/discarded are written wherever the event
	// happens.
	spawned   atomic.Uint64
	recycled  atomic.Uint64
	discarded atomic.Uint64
	liveN     atomic.Int64

	mu       sync.Mutex
	spawning int // spawn attempts in flight (reserve cap slots)
	max      int
	closed   bool
	// wake is a channel-shaped broadcast condition variable: it is
	// closed (and lazily replaced) whenever a checkout might newly
	// succeed — checkin, discard, reclaim, close, failed spawn — so
	// queued GetContext calls can select on it against ctx.Done().
	// Broadcast (vs. the old cond.Signal) wakes every waiter per event;
	// that is a deliberate tradeoff for cancellability, matching the
	// core.SandboxAllocator condvar, and queue depth is bounded by the
	// caller's concurrency (at most the §7.4 budget's overflow).
	wake chan struct{}
}

// lifoDefaultCap sizes the idle stack when the pool is uncapped (or
// capped above 4096): enough idle slots for any realistic core count.
const lifoDefaultCap = 256

// NewPool creates a pool over spawn, drawing each checkin's reset seed
// from nextSeed. The spawn function receives the checkout's context so
// a spawn that waits on a budget the pool does not own (the §7.4
// sandbox tags, shared by every pool of a process) can be abandoned
// with it; a spawn that fails fails its checkout. max bounds live
// instances (checked out plus idle); 0 means unlimited, and the cap is
// the only thing a checkout queues on.
//
// The pool keeps at most max idle instances (lifoDefaultCap, 256, when
// max is 0 or above 4096): a checkin that finds that many idle closes
// its instance instead. A pool capped at 4096 or less never gets there,
// since idle ≤ live ≤ max; an uncapped one keeps 256 of a burst's
// instances.
func NewPool(max int, nextSeed func() uint64, spawn func(ctx context.Context) (Resetter, error)) *Pool {
	c := max
	if c <= 0 || c > 4096 {
		c = lifoDefaultCap
	}
	return &Pool{spawn: spawn, nextSeed: nextSeed, max: max, fast: newLifo(c)}
}

// waitLocked returns the channel closed at the next wakeLocked.
func (p *Pool) waitLocked() chan struct{} {
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return p.wake
}

// wakeLocked wakes every queued checkout (they re-examine the pool).
func (p *Pool) wakeLocked() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = fmt.Errorf("engine: pool is closed")

// Get checks an instance out of the pool, spawning or blocking as the
// cap dictates. It is GetContext with a background context.
func (p *Pool) Get() (Resetter, error) {
	return p.GetContext(context.Background())
}

// GetContext checks an instance out of the pool, spawning or queueing
// as the cap dictates. A checkout queued on the live cap — or inside a
// spawn that waits on its own budget — is abandoned cleanly when ctx
// ends: GetContext returns ctx.Err() and no instance or reservation
// leaks. A spawn that fails otherwise fails the checkout with its
// error.
//
// The hit path (an idle instance is available) is lock-free and
// allocation-free: one pop off the Treiber stack, at most two CAS ops.
func (p *Pool) GetContext(ctx context.Context) (Resetter, error) {
	if !p.closedHint.Load() && ctx.Err() == nil {
		if inst, ok := p.fast.pop(); ok {
			return inst, nil
		}
	}
	return p.getSlow(ctx)
}

// getSlow is the spawn/queue path, entered when the fast stack is
// empty: cap slots are reserved across spawns, a failed spawn frees its
// slot and fails the checkout, and checkouts queued on the cap abandon
// on ctx. The fast stack is re-polled at every turn of the loop (and
// once after each condvar registration — see sleepLocked) so a
// lock-free checkin cannot strand a queued waiter.
func (p *Pool) getSlow(ctx context.Context) (Resetter, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if inst, ok := p.fast.pop(); ok {
			p.mu.Unlock()
			return inst, nil
		}
		if p.max == 0 || int(p.liveN.Load())+p.spawning < p.max {
			p.spawning++
			p.mu.Unlock()
			inst, err := p.spawn(ctx)
			p.mu.Lock()
			p.spawning--
			if err != nil {
				// The cap slot this spawn reserved is free again; let
				// blocked waiters retry.
				p.wakeLocked()
				p.mu.Unlock()
				if ctx.Err() != nil {
					// The spawn was abandoned by our own context; report
					// that, not whatever wrapped error it surfaced as.
					return nil, ctx.Err()
				}
				return nil, err
			}
			p.liveN.Add(1)
			p.spawned.Add(1)
			p.mu.Unlock()
			return inst, nil
		}
		if inst, ok := p.sleepLocked(ctx); ok {
			return inst, nil
		}
		p.mu.Lock()
	}
}

// sleepLocked parks the checkout until the next pool event or ctx end.
// Called with mu held; releases it. The waiter registers (obtains the
// wake channel, bumps waiters), then re-polls the fast stack once
// before sleeping: a lock-free Put either lands its push before that
// re-poll (we take the instance) or runs its waiters check after our
// registration (it broadcasts) — sequential consistency of the atomics
// leaves no third ordering, so no wakeup is lost. On a hit the
// instance is returned with mu released; otherwise the caller must
// re-lock and re-examine the pool.
func (p *Pool) sleepLocked(ctx context.Context) (Resetter, bool) {
	ch := p.waitLocked()
	p.waiters.Add(1)
	p.mu.Unlock()
	if inst, ok := p.fast.pop(); ok {
		p.waiters.Add(-1)
		return inst, true
	}
	select {
	case <-ch:
	case <-ctx.Done():
	}
	p.waiters.Add(-1)
	return nil, false
}

// Put checks an instance back in. The instance is reset first; a reset
// failure closes and discards it (freeing its slot under the cap), and
// so does a checkin that finds the idle stack full, without counting a
// discard.
//
// When the reset succeeds and the pool is open, checkin is lock-free:
// one push onto the Treiber stack, at most two CAS ops, no allocation.
func (p *Pool) Put(inst Resetter) {
	err := inst.Reset(p.nextSeed())
	if err == nil && !p.closedHint.Load() && p.fast.push(inst) {
		p.recycled.Add(1)
		if p.closedHint.Load() {
			// Close raced our push; drain so nothing lingers live in a
			// closed pool.
			p.drainFast()
		}
		if p.waiters.Load() > 0 {
			p.mu.Lock()
			p.wakeLocked()
			p.mu.Unlock()
		}
		return
	}
	p.putSlow(inst, err)
}

// putSlow closes an instance the pool does not keep — its reset
// failed, the pool is closed or the idle stack is full — freeing its
// slot under the cap.
func (p *Pool) putSlow(inst Resetter, err error) {
	p.mu.Lock()
	p.liveN.Add(-1)
	if err != nil {
		p.discarded.Add(1)
	}
	p.wakeLocked()
	p.mu.Unlock()
	inst.Close()
}

// drainFast closes everything on the fast stack; only called once the
// pool is closed, when no checkout can legitimately race the pops.
func (p *Pool) drainFast() {
	for {
		inst, ok := p.fast.pop()
		if !ok {
			return
		}
		p.mu.Lock()
		p.liveN.Add(-1)
		p.wakeLocked()
		p.mu.Unlock()
		inst.Close()
	}
}

// ReclaimOne closes one idle instance, freeing whatever shared budget
// it holds (sandbox tags, memory), and reports whether there was one.
// Used by engines whose pools compete for one tag budget: a pool that
// cannot spawn may reclaim a sibling's idle instance and retry. It
// allocates nothing.
func (p *Pool) ReclaimOne() bool {
	p.mu.Lock()
	inst, ok := p.fast.pop()
	if ok {
		p.liveN.Add(-1)
		p.wakeLocked() // a cap slot freed
	}
	p.mu.Unlock()
	if ok {
		inst.Close()
	}
	return ok
}

// Close retires all idle instances and fails future checkouts.
// Instances currently checked out are closed as they come back.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.closedHint.Store(true)
	var idle []Resetter
	for {
		inst, ok := p.fast.pop()
		if !ok {
			break
		}
		idle = append(idle, inst)
	}
	p.liveN.Add(-int64(len(idle)))
	p.wakeLocked()
	p.mu.Unlock()
	for _, inst := range idle {
		inst.Close()
	}
}

// Stats returns a snapshot of the pool counters. It reads only atomics
// — never the pool mutex — so scraping cannot stall checkouts.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Spawned:   p.spawned.Load(),
		Recycled:  p.recycled.Load(),
		Discarded: p.discarded.Load(),
		Idle:      int(p.fast.size.Load()),
		Live:      int(p.liveN.Load()),
	}
}
