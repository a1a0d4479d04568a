package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"cage"
)

// QuotaPolicy bounds one tenant. Per-call fields are ceilings mapped
// onto the engine's CallOptions — a request may ask for less, never
// more; zero means "no bound on this axis". Admission fields bound the
// tenant's presented load; registry fields bound its uploads.
type QuotaPolicy struct {
	// Fuel caps each call's deterministic timing-model event budget
	// (cage.WithFuel). 0 leaves calls unmetered.
	Fuel uint64
	// Timeout caps each call's wall clock, queueing included
	// (cage.WithTimeout). 0 means the call runs until the client
	// disconnects.
	Timeout time.Duration
	// MemoryPages caps memory.grow in 64 KiB pages (cage.WithMemoryLimit).
	MemoryPages uint64
	// StackDepth caps live frames (cage.WithStackDepth).
	StackDepth int
	// StackWords caps the value arena in 64-bit words (cage.WithValueStack).
	StackWords uint64

	// MaxConcurrent caps the tenant's in-flight invocations; 0 is
	// unlimited (the engine pool still arbitrates instances).
	MaxConcurrent int
	// MaxQueue caps invocations waiting for an admission slot beyond
	// MaxConcurrent; one more is rejected with 429. Meaningless unless
	// MaxConcurrent > 0.
	MaxQueue int
	// RetryAfter is the hint returned with 429; zero defaults to 1s.
	RetryAfter time.Duration

	// MaxModules caps how many distinct modules the tenant may register
	// (re-uploading existing content is free); 0 is unlimited.
	MaxModules int
	// MaxModuleBytes caps one upload body; 0 is unlimited.
	MaxModuleBytes int64

	// SpectreHardened runs the tenant's invocations under the
	// Spectre-hardened twin of the server's configuration (fence events
	// at indirect branches and returns, BTB flushes at sandbox
	// transitions). Semantics are identical to the base config; the
	// tenant pays the mitigation's fuel tax, so per-call Fuel ceilings
	// bite sooner. The server builds the sibling hardened engine only
	// when some policy sets this.
	SpectreHardened bool
}

// effectiveTimeout folds the request's wall-clock ask with the
// policy's ceiling: the smaller of the two wins, and an ask of 0
// inherits the ceiling. This is the bound callSpec enforces, and the
// one a 408 must report.
func (q QuotaPolicy) effectiveTimeout(ask time.Duration) time.Duration {
	timeout := ask
	if q.Timeout > 0 && (timeout <= 0 || timeout > q.Timeout) {
		timeout = q.Timeout
	}
	return timeout
}

// retryAfter returns the 429 hint with its default applied.
func (q QuotaPolicy) retryAfter() time.Duration {
	if q.RetryAfter > 0 {
		return q.RetryAfter
	}
	return time.Second
}

// errQueueFull rejects a request that found the tenant's admission
// queue at capacity.
var errQueueFull = errors.New("serve: tenant admission queue is full")

// errModuleQuota rejects an upload from a tenant with no MaxModules
// headroom; registry.register returns it from the reserve callback
// without inserting anything.
var errModuleQuota = errors.New("serve: tenant module quota exceeded")

// tenant is one quota + metrics namespace.
type tenant struct {
	name   string
	policy QuotaPolicy

	// spec carries the policy's per-call ceilings as a precomputed
	// cage.CallSpec; callSpec folds a request's asks into a copy without
	// touching the heap.
	spec cage.CallSpec

	// sem is the admission semaphore (nil when MaxConcurrent == 0);
	// waiting counts requests queued on it, bounded by MaxQueue with a
	// CAS so the bound is exact under concurrent arrivals.
	sem     chan struct{}
	waiting atomic.Int64
	// active counts invocations between admission and response,
	// including time queued on the engine pool.
	active atomic.Int64
	// modules counts distinct registrations against MaxModules.
	modules atomic.Int64

	m counters
}

func newTenant(name string, policy QuotaPolicy) *tenant {
	t := &tenant{name: name, policy: policy}
	t.spec = cage.CallSpec{
		Fuel:        policy.Fuel,
		StackDepth:  policy.StackDepth,
		StackWords:  policy.StackWords,
		MemoryPages: policy.MemoryPages,
		Timeout:     policy.Timeout,
	}
	if policy.MaxConcurrent > 0 {
		t.sem = make(chan struct{}, policy.MaxConcurrent)
	}
	return t
}

// callSpec folds the policy's precomputed spec with one request's asks:
// the effective bound on each axis is the smaller of the two (an ask of
// 0 inherits the ceiling). The returned value is heap-free; the caller
// sets Results.
func (t *tenant) callSpec(askFuel uint64, askTimeout time.Duration) cage.CallSpec {
	s := t.spec
	if askFuel > 0 && (s.Fuel == 0 || askFuel < s.Fuel) {
		s.Fuel = askFuel
	}
	s.Timeout = t.policy.effectiveTimeout(askTimeout)
	return s
}

// initOptions projects the tenant's ceilings (spec, i.e. callSpec with
// no asks) onto the CallOption list cage.WithInitOptions takes. A zero
// option is the same "no bound" as an absent one, so nothing is
// re-derived here.
func (t *tenant) initOptions() []cage.CallOption {
	s := t.spec
	return []cage.CallOption{
		cage.WithFuel(s.Fuel),
		cage.WithTimeout(s.Timeout),
		cage.WithMemoryLimit(s.MemoryPages),
		cage.WithStackDepth(s.StackDepth),
		cage.WithValueStack(s.StackWords),
	}
}

// admit acquires an admission slot, queueing up to the policy's bound.
// It returns nil on admission (pair with release), errQueueFull when
// the queue is at capacity, or ctx.Err() when the caller disconnected
// while queued — the queued wait is abandoned immediately, holding
// nothing. admit used to return a release closure; the method pair
// keeps `defer tn.release()` open-coded, so admission costs no heap
// allocation on the serve hot path.
func (t *tenant) admit(ctx context.Context) error {
	if t.sem == nil {
		return nil
	}
	select {
	case t.sem <- struct{}{}:
		return nil
	default:
	}
	for {
		w := t.waiting.Load()
		if w >= int64(t.policy.MaxQueue) {
			return errQueueFull
		}
		if t.waiting.CompareAndSwap(w, w+1) {
			break
		}
	}
	defer t.waiting.Add(-1)
	select {
	case t.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the slot admit acquired; a no-op for unlimited
// tenants, so callers defer it unconditionally.
func (t *tenant) release() {
	if t.sem != nil {
		<-t.sem
	}
}
