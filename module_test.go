package cage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cage/internal/engine"
	"cage/internal/wasm"
)

// initGuest keeps one global that init sets: get reads 0 on the
// post-start image and v on an image captured after setup(v).
const initGuest = `
long g;
long setup(long v) { g = v; return 0; }
long get(long x) { return g; }
`

// callGet calls get on m through the engine's pool and fails the test
// unless it returns want.
func callGet(t *testing.T, eng *Engine, m *Module, want uint64, what string) {
	t.Helper()
	res, err := eng.Call(context.Background(), m, "get", []uint64{0})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if res.Values[0] != want {
		t.Fatalf("%s: get = %d, want %d", what, res.Values[0], want)
	}
}

// TestEngineSameContentModules: two modules decoded from one binary are
// two modules to the engine. Under full's one tag, alternating them makes
// every call reclaim the other's instance and fork its own module's
// image, and an init image of one never reaches the other.
func TestEngineSameContentModules(t *testing.T) {
	cfg := FullHardening()
	built, err := NewToolchain(cfg).CompileSource(initGuest)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := built.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg)
	defer eng.Close()
	names := map[*Module]string{a: "a", b: "b"}
	for i, m := range []*Module{a, b, a, b, a, b} {
		callGet(t, eng, m, 0, fmt.Sprintf("call %d on %s", i+1, names[m]))
	}

	ctx := context.Background()
	sa, err := eng.Snapshot(ctx, a, WithInit("setup", 7))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eng.Snapshot(ctx, b, WithInit("setup", 9))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Module() != a || sb.Module() != b {
		t.Fatalf("snapshots image modules %s and %s, want a and b", names[sa.Module()], names[sb.Module()])
	}
	inst, err := eng.NewFromSnapshot(sb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call(ctx, "get", []uint64{0})
	inst.Close()
	if err != nil || res.Values[0] != 9 {
		t.Fatalf("fork of b's init image: get = %v, %v; want 9", res.Values, err)
	}
	for _, m := range []*Module{a, b, a, b} {
		want := uint64(7)
		if m == b {
			want = 9
		}
		callGet(t, eng, m, want, "call on "+names[m]+" after its init snapshot")
	}
}

// TestEngineClosedDoesNotResurrect: a module the engine first sees after
// Close gets no pool that could spawn, so the call fails with
// ErrPoolClosed, nothing is live and no sandbox tag is held.
func TestEngineClosedDoesNotResurrect(t *testing.T) {
	eng := NewEngine(FullHardening())
	seen, err := eng.CompileSource(initGuest)
	if err != nil {
		t.Fatal(err)
	}
	callGet(t, eng, seen, 0, "call before Close")
	eng.Close()
	never, err := eng.CompileSource("long add(long a, long b) { return a + b; }")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Call(ctx, never, "add", []uint64{3, 4}); !errors.Is(err, engine.ErrPoolClosed) {
		t.Errorf("call on a never-seen module after Close = %v, want ErrPoolClosed", err)
	}
	if _, err := eng.Call(ctx, seen, "get", []uint64{0}); !errors.Is(err, engine.ErrPoolClosed) {
		t.Errorf("call on a pooled module after Close = %v, want ErrPoolClosed", err)
	}
	if live := eng.Stats().Pools.Live; live != 0 {
		t.Errorf("%d instances live after Close, want 0", live)
	}
	if used := eng.rt.sandboxes.InUse(); used != 0 {
		t.Errorf("%d sandbox tags held after Close, want 0", used)
	}
}

// heldStartModule builds a module whose start function calls the host
// import test.hold, then exports setup(v), which stores v in a mutable
// global, and get(x), which reads it.
func heldStartModule() *Module {
	m := &wasm.Module{}
	tHold := m.AddType(wasm.FuncType{})
	tUnary := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "test", Name: "hold", TypeIdx: tHold}}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: wasm.I64, Mutable: true}}}
	m.Funcs = []wasm.Function{
		{TypeIdx: tHold, Body: []wasm.Instr{wasm.Call(0), wasm.End()}},
		{TypeIdx: tUnary, Body: []wasm.Instr{wasm.LocalGet(0), wasm.GlobalSet(0), wasm.I64Const(0), wasm.End()}},
		{TypeIdx: tUnary, Body: []wasm.Instr{wasm.GlobalGet(0), wasm.End()}},
	}
	m.Start = new(uint32)
	*m.Start = 1
	m.Exports = []wasm.Export{
		{Name: "setup", Kind: wasm.ExportFunc, Idx: 2},
		{Name: "get", Kind: wasm.ExportFunc, Idx: 3},
	}
	return &Module{wasm: m}
}

// TestEngineSnapshotRacesBaseline: an Engine.Snapshot with an init
// function races a module's first spawn, which captures the post-start
// baseline once its instance is built. Whichever lands first, the init
// image is the one the module keeps: every call after both return runs
// on it.
func TestEngineSnapshotRacesBaseline(t *testing.T) {
	ctx := context.Background()
	// held: the first spawn's start function blocks in a host call until
	// the snapshot is registered, so its baseline capture comes last.
	t.Run("held", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		var held atomic.Bool
		hold := NewHostModule("test")
		HostVoid0(hold, "hold", func(*HostContext) error {
			if held.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
			return nil
		})
		cfg := SandboxingOnly()
		cfg.HostModules = []*HostModule{hold}
		eng := NewEngine(cfg)
		defer eng.Close()
		mod := heldStartModule()
		done := make(chan error, 1)
		go func() {
			_, err := eng.Call(ctx, mod, "get", []uint64{0})
			done <- err
		}()
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("the first call returned before its start function ran: %v", err)
		}
		_, err := eng.Snapshot(ctx, mod, WithInit("setup", 7))
		close(release)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("the held first call: %v", err)
		}
		for i := 0; i < 3; i++ {
			callGet(t, eng, mod, 7, "call after the held spawn")
		}
	})
	// free: the two run unordered, round after round, on full's one tag.
	t.Run("free", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			eng := NewEngine(FullHardening())
			mod, err := eng.CompileSource(initGuest)
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			go func() {
				_, err := eng.Call(ctx, mod, "get", []uint64{0})
				errs <- err
			}()
			go func() {
				_, err := eng.Snapshot(ctx, mod, WithInit("setup", 7))
				errs <- err
			}()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			for i := 0; i < 3; i++ {
				callGet(t, eng, mod, 7, "call after the race")
			}
			eng.Close()
		}
	})
}
