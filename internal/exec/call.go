package exec

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"cage/internal/arch"
)

// CallOptions bounds one invocation. The zero value is an unbounded
// call, equivalent to Invoke.
type CallOptions struct {
	// Fuel caps how many timing-model events (arch.Counter units) the
	// call may consume; 0 leaves the call unmetered. Fuel is
	// deterministic: the same module, arguments, and configuration
	// consume the same fuel on every run, and a fuel-exhausted call
	// traps with TrapFuelExhausted at the same guest instruction.
	Fuel uint64
	// MaxCallDepth overrides the instance's recursion bound for this
	// call only; 0 keeps the instance default. The bound is an exact
	// frame count — live guest frames plus in-flight host crossings —
	// enforced by the frame machine with TrapStackOverflow, not a
	// Go-recursion proxy.
	MaxCallDepth int
	// MaxStackWords overrides the instance's value-arena bound (64-bit
	// words across every live frame's params, locals, and operand stack)
	// for this call only; 0 keeps the instance default. Exceeding it
	// traps with TrapStackOverflow.
	MaxStackWords uint64
	// MemoryLimitPages caps the guest memory size (in 64 KiB pages) that
	// memory.grow may reach during this call, on top of the module's own
	// declared maximum; 0 means no per-call cap. A grow beyond the cap
	// fails with the architectural -1 result, exactly like exceeding the
	// declared maximum.
	MemoryLimitPages uint64
	// Results, when non-nil, is the backing array for the returned
	// Values: if its capacity covers the function's result count the
	// call writes into it instead of allocating a fresh slice. The
	// caller must not read a previous call's Values after passing the
	// same buffer again — this is the knob that makes a pooled
	// server's invoke path allocation-free.
	Results []uint64
}

// CallResult is the outcome of a bounded invocation.
type CallResult struct {
	// Values are the function's return values (raw 64-bit bits).
	Values []uint64
	// Fuel is how many timing-model events the call consumed (whether or
	// not the call was metered). On a trapped call it counts the events
	// up to the trap.
	Fuel uint64
	// Events is the call's timing-model event delta, ready for
	// arch.Counter.Cycles pricing — no need to reach into the instance's
	// cumulative counter.
	Events arch.Counter
}

// meter is the per-call interruption state the dispatch loop polls at
// backward-branch and call checkpoints. It is nil for unbounded calls,
// so the unmetered hot path pays one pointer test per taken branch and
// nothing else.
type meter struct {
	// interrupted is set by the context watcher goroutine; the
	// interpreter polls it at checkpoints.
	interrupted atomic.Bool
	// fuelLimit is the absolute arch.Counter total at which the call
	// runs dry; 0 means unmetered fuel. fuelBudget is the caller-facing
	// budget it was derived from, for the trap message.
	fuelLimit  uint64
	fuelBudget uint64
	// ctx supplies the cause for TrapInterrupted.
	ctx context.Context
	// parent is the meter of the InvokeWith this call re-entered from
	// (host callbacks may nest invocations); checkpoints walk the chain
	// so an inner call can never mask the outer call's deadline or fuel
	// budget.
	parent *meter
}

// check is polled at interrupt checkpoints (taken branches in the
// dispatch loop and function-call entry). It enforces every meter in
// the nesting chain: the innermost bound to trip wins.
func (m *meter) check(ctr *arch.Counter) error {
	for cur := m; cur != nil; cur = cur.parent {
		if cur.interrupted.Load() {
			return &Trap{Code: TrapInterrupted, Msg: "context done", Cause: cur.ctx.Err()}
		}
		if cur.fuelLimit != 0 && ctr.Total() > cur.fuelLimit {
			return &Trap{Code: TrapFuelExhausted, Msg: fmt.Sprintf("budget %d events", cur.fuelBudget)}
		}
	}
	return nil
}

// checkpoint is the dispatch loop's interrupt checkpoint once m.quiet
// has failed: the regions entered since the last drain are priced into
// the counter, then m.check reads it.
func (inst *Instance) checkpoint(m *meter) error {
	inst.drain()
	return m.check(inst.counter)
}

// quiet reports that check has nothing to find without looking
// further: a lone meter (no outer call's bounds to enforce) with no
// fuel budget whose context has not ended — every cancellable call
// without fuel, at every checkpoint until its context ends. It is small
// enough to inline into the dispatch loop, which calls check only when
// quiet is false.
func (m *meter) quiet() bool {
	return m.parent == nil && m.fuelLimit == 0 && !m.interrupted.Load()
}

// checkSync is check plus a direct ctx.Err() poll of every meter in
// the chain. The atomic interrupted flag is set by a watcher goroutine
// (context.AfterFunc), so immediately after a context fires there is a
// window where the flag is not yet visible; at a host-call boundary —
// where a blocking host function typically returns *because* the
// context fired — that window must not let the guest resume, so the
// boundary consults the contexts synchronously. Branch checkpoints in
// the dispatch loop keep the cheap flag-only variant.
func (m *meter) checkSync(ctr *arch.Counter) error {
	if err := m.check(ctr); err != nil {
		return err
	}
	for cur := m; cur != nil; cur = cur.parent {
		if cur.ctx != nil {
			if err := cur.ctx.Err(); err != nil {
				return &Trap{Code: TrapInterrupted, Msg: "context done", Cause: err}
			}
		}
	}
	return nil
}

// InvokeWith calls an exported function under a context and per-call
// bounds. It is the context-first core of the public invocation API:
//
//   - When ctx is cancellable or carries a deadline, a context watcher
//     (context.AfterFunc) arms the instance's interrupt flag the moment
//     ctx ends; the dispatch loop polls the flag on taken branches and
//     calls and unwinds with TrapInterrupted (wrapping ctx.Err()).
//   - When opts.Fuel is set, the same checkpoints compare the timing
//     model's event total against the budget and trap with
//     TrapFuelExhausted, deterministically.
//   - With a background context and zero options nothing is armed and
//     the dispatch loop runs its zero-cost nop variant (a nil pointer
//     test per taken branch).
//
// The instance stays consistent after an interrupt: the trap unwinds
// like any other, so a pooled instance can be reset and reused.
// InvokeWith is not safe for concurrent use on one instance (no Invoke
// variant is); the watcher goroutine only touches the atomic flag.
func (inst *Instance) InvokeWith(ctx context.Context, name string, args []uint64, opts CallOptions) (CallResult, error) {
	fidx, ok := inst.module.ExportedFunc(name)
	if !ok {
		return CallResult{}, fmt.Errorf("exec: no exported function %q", name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return CallResult{}, err
	}

	start := inst.counter.Snapshot()

	// Per-call overrides, restored on every exit path below.
	prevDepth := inst.maxCallDepth
	if opts.MaxCallDepth > 0 {
		inst.maxCallDepth = opts.MaxCallDepth
	}
	prevStackWords := inst.maxStackWords
	if opts.MaxStackWords > 0 {
		inst.maxStackWords = opts.MaxStackWords
	}
	prevMemLimit := inst.memLimitPages
	if opts.MemoryLimitPages > 0 {
		inst.memLimitPages = opts.MemoryLimitPages
	}

	// Arm the meter only when something can actually stop the call, so
	// unbounded calls keep the nop checkpoint variant. The previous
	// meter is restored on exit and chained as the new meter's parent:
	// a host callback that re-enters InvokeWith neither disarms nor
	// shadows the outer call's cancellation checkpoints. The restore is
	// deferred so even a panic out of a host function (recovered by the
	// embedder) cannot leave the instance armed with a dead call's
	// meter or overrides.
	prevMeter := inst.meter
	prevCtx := inst.callCtx
	inst.callCtx = ctx // host functions see this via HostContext.Context
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
		inst.meter = prevMeter
		inst.callCtx = prevCtx
		inst.maxCallDepth = prevDepth
		inst.maxStackWords = prevStackWords
		inst.memLimitPages = prevMemLimit
	}()
	if ctx.Done() != nil || opts.Fuel > 0 {
		m := &meter{ctx: ctx, parent: prevMeter}
		if opts.Fuel > 0 {
			m.fuelBudget = opts.Fuel
			m.fuelLimit = start.Total() + opts.Fuel
			if m.fuelLimit < opts.Fuel { // saturate on overflow
				m.fuelLimit = math.MaxUint64
			}
		}
		inst.meter = m
		if ctx.Done() != nil {
			// No goroutine unless the context actually fires.
			stopWatch = context.AfterFunc(ctx, func() { m.interrupted.Store(true) })
		}
	}

	res, err := inst.invokeInto(fidx, args, opts.Results)

	if err == nil {
		err = inst.pollAsyncFault()
	}
	delta := inst.counter.DeltaSince(start)
	return CallResult{Values: res, Fuel: delta.Total(), Events: delta}, err
}
