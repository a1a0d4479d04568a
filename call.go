package cage

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cage/internal/arch"
	"cage/internal/exec"
)

// CallOption bounds a single Call. Options compose freely:
//
//	res, err := eng.Call(ctx, mod, "sum", []uint64{100},
//	    cage.WithTimeout(50*time.Millisecond),
//	    cage.WithFuel(1_000_000))
type CallOption func(*callSettings)

// callSettings is the resolved option set for one call.
type callSettings struct {
	fuel        uint64
	stackDepth  int
	stackWords  uint64
	memPages    uint64
	timeout     time.Duration
	deadline    time.Time
	hasDeadline bool
	results     []uint64
}

// WithFuel caps the call at n fuel units. One fuel unit is one
// timing-model event (the arch.Counter units the paper's cost model
// prices), so fuel is deterministic: the same module, arguments, and
// configuration consume identical fuel on every run, and an exhausted
// call traps with TrapFuelExhausted at the same guest instruction.
// Zero leaves the call unmetered.
func WithFuel(n uint64) CallOption {
	return func(s *callSettings) { s.fuel = n }
}

// WithTimeout interrupts the call d after it starts (checkout queueing
// included). It is WithDeadline relative to Call's entry; the earliest
// of the context deadline, WithDeadline, and WithTimeout wins.
func WithTimeout(d time.Duration) CallOption {
	return func(s *callSettings) { s.timeout = d }
}

// WithDeadline interrupts the call at t. The earliest of the context
// deadline, WithDeadline, and WithTimeout wins.
func WithDeadline(t time.Time) CallOption {
	return func(s *callSettings) { s.deadline = t; s.hasDeadline = true }
}

// WithStackDepth overrides the engine's recursion bound (default 1024
// frames) for this call only. The bound is exact: the frame machine
// counts live activations — guest frames plus in-flight host crossings
// — and the n+1'th frame traps with a deterministic TrapStackOverflow,
// not a Go-recursion proxy.
func WithStackDepth(n int) CallOption {
	return func(s *callSettings) { s.stackDepth = n }
}

// WithValueStack caps the call's value arena — the contiguous slots
// holding every live frame's parameters, locals, and operand stack — at
// n 64-bit words (default 1<<22, 32 MiB), for this call only. Exceeding
// the cap traps with TrapStackOverflow at an exact, deterministic
// arena size, so guest recursion is bounded in bytes as well as frames.
func WithValueStack(words uint64) CallOption {
	return func(s *callSettings) { s.stackWords = words }
}

// WithMemoryLimit caps the guest memory size (in 64 KiB wasm pages)
// that memory.grow may reach during this call, on top of the module's
// declared maximum. A grow past the cap fails with the architectural -1
// result, exactly like exceeding the declared maximum.
func WithMemoryLimit(pages uint64) CallOption {
	return func(s *callSettings) { s.memPages = pages }
}

// resolveCallSettings folds the options into one settings value.
func resolveCallSettings(opts []CallOption) callSettings {
	var s callSettings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// CallSpec is the allocation-free sibling of the CallOption list: a
// plain value struct carrying the same per-call bounds. Where each
// WithFuel/WithTimeout call allocates a closure, a CallSpec can live in
// a request-scoped pool or a per-tenant policy and be passed by value —
// Engine.CallWith with a zero-timeout spec and a non-cancellable ctx
// stays off the heap entirely, which is what the serve hot path (and
// its zero-alloc CI gate) runs on. The zero value means "no bounds",
// like an empty option list.
type CallSpec struct {
	// Fuel caps the call in timing-model events; 0 leaves it unmetered.
	Fuel uint64
	// StackDepth/StackWords bound frames and the value arena; 0 keeps
	// the engine defaults. See WithStackDepth/WithValueStack.
	StackDepth int
	StackWords uint64
	// MemoryPages caps memory.grow for the call; see WithMemoryLimit.
	MemoryPages uint64
	// Timeout interrupts the call that long after entry; Deadline (when
	// set) at an absolute instant. The earliest of these and the ctx
	// deadline wins. See WithTimeout/WithDeadline.
	Timeout     time.Duration
	Deadline    time.Time
	HasDeadline bool
	// Results, when non-nil, backs Result.Values: if its capacity covers
	// the function's result count the call writes into it instead of
	// allocating. The caller must treat the previous call's Values as
	// dead once it passes the buffer again.
	Results []uint64
}

// settings converts the spec to the internal resolved form.
func (c CallSpec) settings() callSettings {
	return callSettings{
		fuel:        c.Fuel,
		stackDepth:  c.StackDepth,
		stackWords:  c.StackWords,
		memPages:    c.MemoryPages,
		timeout:     c.Timeout,
		deadline:    c.Deadline,
		hasDeadline: c.HasDeadline,
		results:     c.Results,
	}
}

// context derives the effective call context: the caller's ctx bounded
// by WithTimeout/WithDeadline. The returned cancel func must always be
// called (it is a no-op when no option applied).
func (s callSettings) context(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if s.hasDeadline {
		ctx, cancel = context.WithDeadline(ctx, s.deadline)
	}
	if s.timeout > 0 {
		prev := cancel
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		inner := cancel
		cancel = func() { inner(); prev() }
	}
	return ctx, cancel
}

// execOptions translates the settings into the interpreter's per-call
// bounds (the context travels separately).
func (s callSettings) execOptions() exec.CallOptions {
	return exec.CallOptions{
		Fuel:             s.fuel,
		MaxCallDepth:     s.stackDepth,
		MaxStackWords:    s.stackWords,
		MemoryLimitPages: s.memPages,
		Results:          s.results,
	}
}

// Result is the outcome of a Call: the return values plus the resource
// telemetry embedders previously had to scrape out of Instance.Raw().
type Result struct {
	// Values are the function's return values as raw 64-bit bits.
	Values []uint64
	// Fuel is the fuel the call consumed (timing-model events), counted
	// whether or not the call was metered; on a trapped call it covers
	// the events up to the trap.
	Fuel uint64
	// Events is the call's timing-model event snapshot, ready to be
	// priced on any core (Events.Cycles, Events.Millis).
	Events arch.Counter
}

// F64 decodes the first return value as a float64; fn names the
// function in the error for a void result.
func (r Result) F64(fn string) (float64, error) {
	if len(r.Values) == 0 {
		return 0, fmt.Errorf("cage: %s returned no value", fn)
	}
	return exec.F64Val(r.Values[0]), nil
}

// Call invokes an exported function on a pooled instance of m under ctx
// and per-call bounds. It is safe to call from many goroutines.
//
// ctx (tightened by WithTimeout/WithDeadline) governs the whole call:
// a checkout queued on the live cap or the §7.4 sandbox-tag budget is
// abandoned with ctx.Err() when it ends, and a running guest — even a
// guest infinite loop — is interrupted at the next branch or call
// checkpoint with a TrapInterrupted trap that wraps the context error.
// The interrupted instance is reset before the pool reuses it, so a
// cancelled call can never poison a later one or leak its sandbox tag.
//
// With a background context and no options the interpreter runs its
// unmetered fast path; the per-call machinery costs nothing.
func (e *Engine) Call(ctx context.Context, m *Module, fn string, args []uint64, opts ...CallOption) (Result, error) {
	return e.callSettings(ctx, m, fn, args, resolveCallSettings(opts))
}

// CallWith is Call with the bounds passed as a CallSpec value instead
// of an option list. Semantics are identical; the difference is purely
// allocation: the whole checkout → invoke → checkin round trip is
// heap-free when spec carries no timeout/deadline and ctx is not
// cancellable, so a server can run millions of admitted requests per
// GC cycle. This is the path cage-serve's invoke handler uses.
func (e *Engine) CallWith(ctx context.Context, m *Module, fn string, args []uint64, spec CallSpec) (Result, error) {
	return e.callSettings(ctx, m, fn, args, spec.settings())
}

// callSettings runs the checkout → invoke → checkin round trip with
// resolved settings, with no intermediate closures.
func (e *Engine) callSettings(ctx context.Context, m *Module, fn string, args []uint64, s callSettings) (Result, error) {
	ctx, cancel := s.context(ctx)
	defer cancel()
	pi, err := e.checkout(ctx, m)
	if err != nil {
		return Result{}, err
	}
	defer pi.checkin()
	return pi.i.callResolved(ctx, fn, args, s)
}

// Call invokes an exported function under ctx and per-call bounds. See
// Engine.Call for the semantics; on a bare Runtime instance there is no
// pool, so ctx only governs the invocation itself.
func (i *Instance) Call(ctx context.Context, fn string, args []uint64, opts ...CallOption) (Result, error) {
	s := resolveCallSettings(opts)
	ctx, cancel := s.context(ctx)
	defer cancel()
	return i.callResolved(ctx, fn, args, s)
}

// callResolved runs the call with already-resolved settings (so
// Engine.Call does not re-apply timeout options after the checkout).
func (i *Instance) callResolved(ctx context.Context, fn string, args []uint64, s callSettings) (Result, error) {
	cr, err := i.inst.InvokeWith(ctx, fn, args, s.execOptions())
	return Result{Values: cr.Values, Fuel: cr.Fuel, Events: cr.Events}, err
}

// IsInterrupted reports whether err is a call cut off by its context
// (cancellation or deadline) — whether the guest was interrupted
// mid-run (a TrapInterrupted trap, which wraps the context error) or
// the deadline landed before guest entry, e.g. while the checkout was
// queued on the pool or the tag budget (a bare context error). Callers
// that care about the difference can errors.As for *exec.Trap.
func IsInterrupted(err error) bool {
	var t *exec.Trap
	if errors.As(err, &t) {
		return t.Code == exec.TrapInterrupted
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsFuelExhausted reports whether err is a call that ran out of its
// WithFuel budget.
func IsFuelExhausted(err error) bool {
	var t *exec.Trap
	return errors.As(err, &t) && t.Code == exec.TrapFuelExhausted
}
