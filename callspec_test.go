package cage

import (
	"context"
	"testing"
	"time"
)

// TestCallWithMatchesCall pins CallSpec to the option list it mirrors:
// same bounds, same traps, same results.
func TestCallWithMatchesCall(t *testing.T) {
	eng := NewEngine(SandboxingOnly())
	defer eng.Close()
	mod, err := eng.CompileSource(callTestSource)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	want, err := eng.Call(ctx, mod, "work", []uint64{1000})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.CallWith(ctx, mod, "work", []uint64{1000}, CallSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0] != want.Values[0] || got.Fuel != want.Fuel {
		t.Fatalf("CallWith = %v/%d fuel, Call = %v/%d fuel", got.Values, got.Fuel, want.Values, want.Fuel)
	}

	// Fuel exhaustion must trap identically through the spec.
	_, errOpt := eng.Call(ctx, mod, "spin", []uint64{0}, WithFuel(10_000))
	_, errSpec := eng.CallWith(ctx, mod, "spin", []uint64{0}, CallSpec{Fuel: 10_000})
	if !IsFuelExhausted(errOpt) || !IsFuelExhausted(errSpec) {
		t.Fatalf("fuel trap: opt=%v spec=%v", errOpt, errSpec)
	}

	// Timeouts must interrupt identically.
	_, errSpec = eng.CallWith(ctx, mod, "spin", []uint64{0}, CallSpec{Timeout: 10 * time.Millisecond})
	if !IsInterrupted(errSpec) {
		t.Fatalf("spec timeout: %v", errSpec)
	}

	// Stack bounds travel too.
	_, errSpec = eng.CallWith(ctx, mod, "rec", []uint64{1 << 20}, CallSpec{StackDepth: 64})
	if errSpec == nil {
		t.Fatal("spec stack bound did not trap")
	}
}

// TestCallWithZeroAlloc pins the whole admitted-call round trip —
// pool lookup, lock-free checkout, invoke, reset (snapshot fork),
// lock-free checkin — at zero steady-state heap allocations when the
// spec carries no timeout and the context is not cancellable.
func TestCallWithZeroAlloc(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := NewEngine(SandboxingOnly())
	defer eng.Close()
	compiled, err := eng.CompileSource(callTestSource)
	if err != nil {
		t.Fatal(err)
	}
	wasiMod := &Module{wasm: wasiStateModule()}
	cases := []struct {
		name string
		mod  *Module
		fn   string
		args []uint64
		want uint64
	}{
		{"minicc", compiled, "work", []uint64{64}, 2016},
		// A WASI import: the reset also restores the clock, so every
		// call reads the first value.
		{"wasi clock", wasiMod, "now", nil, 1_000_001_000},
		// random_get generates into the WASI system's scratch buffer,
		// and the reset restores the generator: every call reads the
		// first eight bytes of the xorshift stream.
		{"wasi random_get", wasiMod, "rand", nil, 0x0ae969fee345698e},
	}
	ctx := context.Background()
	spec := CallSpec{Results: make([]uint64, 4)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm: spawn the instance, capture the baseline snapshot,
			// build the pool, publish every cache map.
			for i := 0; i < 3; i++ {
				if _, err := eng.CallWith(ctx, tc.mod, tc.fn, tc.args, spec); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(200, func() {
				res, err := eng.CallWith(ctx, tc.mod, tc.fn, tc.args, spec)
				if err != nil || res.Values[0] != tc.want {
					panic("bad result")
				}
			}); n != 0 {
				t.Fatalf("CallWith allocates %v/op steady-state, want 0", n)
			}
		})
	}
}
