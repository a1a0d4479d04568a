package cage

import (
	"context"
	"errors"
	"testing"
	"time"

	"cage/internal/exec"
)

// callTestSource exercises every per-call bound: an infinite loop for
// interruption, bounded work for fuel accounting, recursion for the
// stack-depth option.
const callTestSource = `
long spin(long n) {
    while (1) { n = n + 1; }
    return n;
}
long work(long n) {
    long s = 0;
    for (long i = 0; i < n; i++) { s = s + i; }
    return s;
}
long rec(long n) {
    if (n <= 0) { return 0; }
    return rec(n - 1) + 1;
}
`

func compileCallTest(t *testing.T, eng *Engine) *Module {
	t.Helper()
	mod, err := eng.CompileSource(callTestSource)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestCallTimeoutInterruptsInfiniteLoop is the acceptance criterion: a
// guest for(;;) invoked with a 100ms timeout returns TrapInterrupted
// promptly, and the pooled instance is reset and reusable afterwards —
// no poisoned pool slot, no leaked sandbox tag.
func TestCallTimeoutInterruptsInfiniteLoop(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	start := time.Now()
	_, err := eng.Call(context.Background(), mod, "spin", []uint64{0},
		WithTimeout(100*time.Millisecond))
	elapsed := time.Since(start)
	if !IsInterrupted(err) {
		t.Fatalf("Call(spin) = %v, want TrapInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("interrupted trap does not wrap context.DeadlineExceeded: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("interruption took %v, want promptly after the 100ms deadline", elapsed)
	}

	// Under FullHardening the process owns a single sandbox tag: if the
	// interrupted call leaked it or poisoned the pool slot, these reuse
	// calls would hang or fail.
	for i := 0; i < 3; i++ {
		res, err := eng.Call(context.Background(), mod, "work", []uint64{100})
		if err != nil {
			t.Fatalf("Call(work) %d after interrupt: %v", i, err)
		}
		if len(res.Values) != 1 || res.Values[0] != 4950 {
			t.Fatalf("Call(work) %d after interrupt = %v, want 4950", i, res.Values)
		}
	}
	if s := eng.Stats(); s.Pools.Discarded != 0 {
		t.Errorf("pool discarded %d instances; an interrupt must reset, not discard", s.Pools.Discarded)
	}
}

// TestCallContextCancelInterrupts covers caller-side cancellation (as
// opposed to option-derived deadlines).
func TestCallContextCancelInterrupts(t *testing.T) {
	eng := NewEngine(MemorySafetyOnly())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := eng.Call(ctx, mod, "spin", []uint64{0})
	if !IsInterrupted(err) {
		t.Fatalf("Call(spin) = %v, want TrapInterrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("interrupted trap does not wrap context.Canceled: %v", err)
	}
}

// TestCallAlreadyCancelledContext: a dead context fails before any
// guest code runs.
func TestCallAlreadyCancelledContext(t *testing.T) {
	eng := NewEngine(Baseline64())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Call(ctx, mod, "work", []uint64{10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestCallFuelExhaustionDeterministic: a fuel-exhausted run traps
// identically — same trap, same fuel reading — on every repeat.
func TestCallFuelExhaustionDeterministic(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	// Measure the unmetered cost once, then pick a budget well below it.
	full, err := eng.Call(context.Background(), mod, "work", []uint64{10000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Fuel == 0 {
		t.Fatal("unmetered call reported zero fuel")
	}
	budget := full.Fuel / 4

	var readings []uint64
	for i := 0; i < 3; i++ {
		res, err := eng.Call(context.Background(), mod, "work", []uint64{10000}, WithFuel(budget))
		if !IsFuelExhausted(err) {
			t.Fatalf("run %d = %v, want TrapFuelExhausted", i, err)
		}
		readings = append(readings, res.Fuel)
	}
	for i := 1; i < len(readings); i++ {
		if readings[i] != readings[0] {
			t.Fatalf("fuel at exhaustion differs across repeats: %v", readings)
		}
	}

	// A sufficient budget completes and consumes the unmetered amount.
	res, err := eng.Call(context.Background(), mod, "work", []uint64{10000}, WithFuel(full.Fuel+1))
	if err != nil {
		t.Fatalf("metered call with sufficient fuel: %v", err)
	}
	if res.Fuel != full.Fuel {
		t.Errorf("metered run consumed %d fuel, unmetered %d; metering must not change execution", res.Fuel, full.Fuel)
	}
	if res.Events.Total() != res.Fuel {
		t.Errorf("Result.Events total %d != Result.Fuel %d", res.Events.Total(), res.Fuel)
	}
}

// TestCallCancelledQueuedCheckout: under the combined configuration the
// process owns one §7.4 tag. A checkout queued behind it must be
// abandonable via ctx, must surface the context error, and must not
// leak the tag — the release path is exercised under -race in CI.
func TestCallCancelledQueuedCheckout(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	modA, err := eng.CompileSource(`long fa(long n) { return n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	modB, err := eng.CompileSource(`long fb(long n) { return n + 2; }`)
	if err != nil {
		t.Fatal(err)
	}

	holding := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		aDone <- eng.WithInstance(modA, func(inst *Instance) error {
			close(holding)
			<-release
			_, err := inst.Call(context.Background(), "fa", []uint64{1})
			return err
		})
	}()
	<-holding

	// B's checkout queues on the held tag and is abandoned by its
	// deadline.
	_, err = eng.Call(context.Background(), modB, "fb", []uint64{1},
		WithTimeout(50*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Call = %v, want context.DeadlineExceeded", err)
	}

	// Release A; the tag must be intact and serve B.
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	res, err := eng.Call(context.Background(), modB, "fb", []uint64{1})
	if err != nil {
		t.Fatalf("Call(modB) after abandoned checkout: %v", err)
	}
	if res.Values[0] != 3 {
		t.Fatalf("fb = %d, want 3", res.Values[0])
	}
}

// TestCallStackDepthOption: WithStackDepth bounds recursion per call
// without disturbing the instance default.
func TestCallStackDepthOption(t *testing.T) {
	eng := NewEngine(Baseline64())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	_, err := eng.Call(context.Background(), mod, "rec", []uint64{100}, WithStackDepth(10))
	var trap *exec.Trap
	if !errors.As(err, &trap) || trap.Code != exec.TrapStackOverflow {
		t.Fatalf("rec(100) under WithStackDepth(10) = %v, want TrapStackOverflow", err)
	}

	// The override must not stick to the pooled instance.
	res, err := eng.Call(context.Background(), mod, "rec", []uint64{100})
	if err != nil {
		t.Fatalf("rec(100) with default depth: %v", err)
	}
	if res.Values[0] != 100 {
		t.Fatalf("rec(100) = %d, want 100", res.Values[0])
	}
}

// TestConfigurationAfterFirstCallFails is the regression test for the
// unsynchronized pools.Limit mutation: pool parameters are frozen once
// the engine has served an invocation.
func TestConfigurationAfterFirstCallFails(t *testing.T) {
	eng := NewEngine(MemorySafetyOnly())
	defer eng.Close()
	if err := eng.SetPoolLimit(4); err != nil {
		t.Fatalf("SetPoolLimit before first Call: %v", err)
	}
	mod := compileCallTest(t, eng)
	if _, err := eng.Call(context.Background(), mod, "work", []uint64{10}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetPoolLimit(8); !errors.Is(err, ErrEngineStarted) {
		t.Errorf("SetPoolLimit after Call = %v, want ErrEngineStarted", err)
	}
	if err := eng.EnableExtendedSandboxes(); !errors.Is(err, ErrEngineStarted) {
		t.Errorf("EnableExtendedSandboxes after Call = %v, want ErrEngineStarted", err)
	}
}

// TestInvokeDelegatesToCall: the deprecated Instance.Invoke wrapper
// stays behaviorally identical to Call.
func TestInvokeDelegatesToCall(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	err := eng.WithInstance(mod, func(inst *Instance) error {
		res, err := inst.Invoke("work", 100)
		if err == nil && (len(res) != 1 || res[0] != 4950) {
			t.Errorf("Invoke(work, 100) = %v, want [4950]", res)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCallValueStackOption: WithValueStack bounds the call's value
// arena in words, per call, with an exact TrapStackOverflow.
func TestCallValueStackOption(t *testing.T) {
	eng := NewEngine(Baseline64())
	defer eng.Close()
	mod := compileCallTest(t, eng)

	_, err := eng.Call(context.Background(), mod, "rec", []uint64{100}, WithValueStack(64))
	var trap *exec.Trap
	if !errors.As(err, &trap) || trap.Code != exec.TrapStackOverflow {
		t.Fatalf("rec(100) under WithValueStack(64) = %v, want TrapStackOverflow", err)
	}

	// The override must not stick to the pooled instance.
	res, err := eng.Call(context.Background(), mod, "rec", []uint64{100})
	if err != nil {
		t.Fatalf("rec(100) with default arena: %v", err)
	}
	if res.Values[0] != 100 {
		t.Fatalf("rec(100) = %d, want 100", res.Values[0])
	}
}
