package exec_test

// The fuel golden: where a fuel budget runs out, and what the call has
// consumed when it does, is part of the executor's contract
// (CallOptions.Fuel: "a fuel-exhausted call traps with
// TrapFuelExhausted at the same guest instruction"). The differential
// suites compare tiers with each other; this pins both to a recorded
// history, so a change to where the dispatch loop charges events that
// shifts any fuel point — even identically in every tier — fails here.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
)

const fuelGoldenFile = "testdata/fuel_golden.txt"

// TestFuelGolden runs gemm and jacobi-1d at TestN under full and
// baseline32, fused and lowered, with every fuel budget from 1 to 2 000
// and 200 budgets spread evenly over the whole run, and compares each
// outcome — trap code, CallResult.Fuel and the per-event totals — with
// testdata/fuel_golden.txt. Consecutive budgets with the same outcome
// share one line.
func TestFuelGolden(t *testing.T) {
	if testing.Short() || exec.RaceEnabled {
		t.Skip("runs each kernel 2 200 times per tier; nothing in it is concurrent")
	}
	want, err := os.ReadFile(fuelGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := fuelGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", fuelGoldenFile, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", fuelGoldenFile, len(gl), len(wl))
}

// fuelGolden renders the golden's text.
func fuelGolden(t *testing.T) string {
	configs := []struct {
		name  string
		opts  codegen.Options
		feats core.Features
	}{
		{"full", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}, core.CageAll()},
		{"baseline32", codegen.Options{Wasm64: false}, core.Features{}},
	}
	var b strings.Builder
	for _, name := range []string{"gemm", "jacobi-1d"} {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			m, err := polybench.Build(k, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := exec.LowerModule(m, exec.Config{Features: cfg.feats})
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range []struct {
				name string
				prog *ir.Program
			}{{"lowered", prog}, {"fused", fuse.Fuse(prog, nil)}} {
				call := func(fuel uint64) (exec.CallResult, error) {
					var ctr arch.Counter
					inst, err := kernelInstance(m, cfg.feats, &ctr, tier.prog)
					if err != nil {
						t.Fatal(err)
					}
					return inst.InvokeWith(context.Background(), "run",
						[]uint64{uint64(k.TestN)}, exec.CallOptions{Fuel: fuel})
				}
				res, err := call(0)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, cfg.name, tier.name, err)
				}
				total := res.Fuel
				fmt.Fprintf(&b, "# %s/%s/%s fuel=%d\n", name, cfg.name, tier.name, total)
				budgets := make([]uint64, 0, 2200)
				for f := uint64(1); f <= 2000; f++ {
					budgets = append(budgets, f)
				}
				for i := uint64(1); i <= 200; i++ {
					budgets = append(budgets, total*i/200)
				}
				first, last, prev := budgets[0], budgets[0], ""
				flush := func() {
					if first == last {
						fmt.Fprintf(&b, "%d: %s\n", first, prev)
					} else {
						fmt.Fprintf(&b, "%d-%d: %s\n", first, last, prev)
					}
				}
				for i, f := range budgets {
					out := fuelOutcome(call(f))
					if i > 0 && (out != prev || f != last+1) {
						flush()
						first = f
					}
					last, prev = f, out
				}
				flush()
			}
		}
	}
	return b.String()
}

// fuelOutcome renders one call's outcome: the trap code (or ok), the
// fuel consumed and every non-zero per-event total.
func fuelOutcome(res exec.CallResult, err error) string {
	code := "ok"
	if err != nil {
		var tr *exec.Trap
		if !errors.As(err, &tr) {
			return "error " + err.Error()
		}
		code = tr.Code.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s fuel=%d", code, res.Fuel)
	for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
		if n := res.Events.Get(ev); n != 0 {
			fmt.Fprintf(&b, " %v=%d", ev, n)
		}
	}
	return b.String()
}
