package cage

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cage/internal/wasm"
)

// rotateModules compiles four single-function modules, add(a, b) =
// a + b + k for k = 1..4, the modules the rotate tests cycle over.
func rotateModules(t testing.TB, eng *Engine) []*Module {
	t.Helper()
	mods := make([]*Module, 4)
	for k := range mods {
		m, err := eng.CompileSource(fmt.Sprintf("long add(long a, long b) { return a + b + %d; }", k+1))
		if err != nil {
			t.Fatal(err)
		}
		mods[k] = m
	}
	return mods
}

// rotateCallAllocs is what one reclaim-plus-spawn CallWith allocates
// under FullHardening: the instance's Go objects (the exec and cage
// instances, counter, MTE state and segment table, visit counts,
// globals, allocator, WASI system, host state, pool handle) and the
// arena and frame stack of its first call. Validation, linking, lowering
// and cache lookups are paid once per module, not per spawn.
const rotateCallAllocs = 16

// TestRotateCallAllocs pins the allocations of a checkout that is never
// an idle hit: four modules round-robin on full's one tag, so every
// CallWith closes the sibling instance holding the tag and forks one
// from its own module's image.
func TestRotateCallAllocs(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mods := rotateModules(t, eng)
	ctx := context.Background()
	args, spec := []uint64{3, 4}, CallSpec{Results: make([]uint64, 1)}
	i := 0
	call := func() {
		k := i % len(mods)
		i++
		res, err := eng.CallWith(ctx, mods[k], "add", args, spec)
		if err != nil || res.Values[0] != uint64(3+4+k+1) {
			panic(fmt.Sprintf("module %d: %v, %v", k, res.Values, err))
		}
	}
	for range mods { // build every pool and capture every image
		call()
	}
	spawned := eng.Stats().Pools.Spawned
	n := testing.AllocsPerRun(200, call)
	if got := eng.Stats().Pools.Spawned - spawned; got != uint64(i-len(mods)) {
		t.Fatalf("%d spawns in %d calls: some checkout was an idle hit", got, i-len(mods))
	}
	if n != rotateCallAllocs {
		t.Errorf("a reclaim-plus-spawn CallWith allocates %v times, want %d (lower the pin if it fell)", n, rotateCallAllocs)
	}
}

// TestBirthOnExhaustedBudgetAllocatesNothing: a birth attempt takes its
// tag before it builds or looks anything up, so a birth on a budget an
// in-flight call holds — which can reclaim nothing and, with its context
// done, gives up after one look and one registered wait — allocates
// nothing and leaves the budget as it found it.
func TestBirthOnExhaustedBudgetAllocatesNothing(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mods := rotateModules(t, eng)
	in, err := eng.rt.prepare(mods[1])
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	err = eng.WithInstance(mods[0], func(*Instance) error {
		inUse := eng.rt.sandboxes.InUse()
		n := testing.AllocsPerRun(100, func() {
			if _, err := eng.birth(done, mods[1], in, true); !errors.Is(err, context.Canceled) {
				panic(fmt.Sprintf("birth on a held budget: %v, want context.Canceled", err))
			}
		})
		if n != 0 {
			return fmt.Errorf("a birth attempt on an exhausted budget allocates %v times, want 0", n)
		}
		if got := eng.rt.sandboxes.InUse(); got != inUse {
			return fmt.Errorf("after failed births %d tags are in use, want %d", got, inUse)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineRotateOnOneTag: four modules, two goroutines each, cycle on
// full's one sandbox tag through both checkout paths, so nearly every
// checkout reclaims a sibling's instance and spawns its own. Every
// result matches its closed form, no more than one instance is ever
// live, and Close returns the tag.
func TestEngineRotateOnOneTag(t *testing.T) {
	eng := NewEngine(FullHardening())
	mods := rotateModules(t, eng)
	const perModule, rounds = 2, 40
	errs := make(chan error, len(mods)*perModule)
	for k, m := range mods {
		for g := 0; g < perModule; g++ {
			go func(k int, m *Module) {
				errs <- rotate(eng, k, m, rounds)
			}(k, m)
		}
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	eng.Close()
	if n := eng.rt.sandboxes.InUse(); n != 0 {
		t.Errorf("after Close %d sandbox tags are in use, want 0", n)
	}
}

// rotate calls module k's add rounds times, alternating Engine.Call with
// a WithInstance that also checks, while it holds full's one tag, that
// it holds the only live instance.
func rotate(eng *Engine, k int, m *Module, rounds int) error {
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		a, b := uint64(r)<<32, uint64(k*rounds+r)
		want := a + b + uint64(k+1)
		if r%2 == 0 {
			res, err := eng.Call(ctx, m, "add", []uint64{a, b})
			if err != nil {
				return fmt.Errorf("module %d round %d: %w", k, r, err)
			}
			if res.Values[0] != want {
				return fmt.Errorf("module %d round %d: add = %d, want %d", k, r, res.Values[0], want)
			}
			continue
		}
		err := eng.WithInstance(m, func(inst *Instance) error {
			if live := eng.Stats().Pools.Live; live > 1 {
				return fmt.Errorf("%d live instances on one tag", live)
			}
			res, err := inst.Call(ctx, "add", []uint64{a, b})
			if err != nil {
				return err
			}
			if res.Values[0] != want {
				return fmt.Errorf("add = %d, want %d", res.Values[0], want)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("module %d round %d: %w", k, r, err)
		}
	}
	return nil
}

// TestInvalidModuleRejected: validation happens once, where a module is
// made — DecodeModule, the toolchain, or the first program build of a
// module assembled by hand — and births that adopt the program skip it.
// A module that fails validation must be rejected by every entry point.
func TestInvalidModuleRejected(t *testing.T) {
	raw := &wasm.Module{}
	ty := raw.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	raw.Funcs = []wasm.Function{{TypeIdx: ty, Body: []wasm.Instr{wasm.I32Const(7), wasm.End()}}}
	raw.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	raw.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	bin, err := wasm.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	var verr *wasm.ValidationError
	if _, err := DecodeModule(bin); !errors.As(err, &verr) {
		t.Errorf("DecodeModule: %v, want a validation error", err)
	}
	eng := NewEngine(FullHardening())
	defer eng.Close()
	if _, err := eng.DecodeModule(bin); !errors.As(err, &verr) {
		t.Errorf("Engine.DecodeModule: %v, want a validation error", err)
	}
	rt := NewRuntime(FullHardening())
	for i := 0; i < 2; i++ { // a failed build is not cached as a program
		inst, err := rt.Instantiate(&Module{wasm: raw})
		if err == nil {
			inst.Close()
		}
		if !errors.As(err, &verr) {
			t.Errorf("attempt %d: Runtime.Instantiate of a hand-built module: %v, want a validation error", i, err)
		}
	}
	if _, err := eng.Call(context.Background(), &Module{wasm: raw}, "f", nil); !errors.As(err, &verr) {
		t.Errorf("Engine.Call of a hand-built module: %v, want a validation error", err)
	}
	if n := rt.sandboxes.InUse() + eng.rt.sandboxes.InUse(); n != 0 {
		t.Errorf("rejected modules hold %d sandbox tags, want 0", n)
	}
}
