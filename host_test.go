package cage

// Tests for the public host-module API: NewHostModule with the typed
// adapters, modules frozen when an engine is built with them,
// structured link errors, interruption of blocking host calls through
// Engine.Call, and a WASI round-trip through the public Memory view.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cage/internal/exec"
	"cage/internal/wasm"
)

// engineWith builds an engine for cfg that links the host modules.
func engineWith(cfg Config, hms ...*HostModule) *Engine {
	cfg.HostModules = hms
	return NewEngine(cfg)
}

func TestEngineHostModuleTypedEndToEnd(t *testing.T) {
	hm := NewHostModule("env")
	HostFunc2(hm, "clamp", func(_ *HostContext, v, hi int64) (int64, error) {
		if v > hi {
			return hi, nil
		}
		return v, nil
	})
	eng := engineWith(FullHardening(), hm)
	defer eng.Close()
	mod, err := eng.CompileSource(`
		extern long clamp(long v, long hi);
		long run(long n) {
		    long s = 0;
		    for (long i = 0; i < n; i++) { s = s + clamp(i, 10); }
		    return s;
		}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Call(context.Background(), mod, "run", []uint64{20})
	if err != nil {
		t.Fatal(err)
	}
	// 0+1+...+9 + 10*10 = 45 + 100.
	if res.Values[0] != 145 {
		t.Errorf("run = %d", res.Values[0])
	}
}

// TestHostModuleFrozenAtConstruction: building an engine freezes the
// host modules it is given — a definition afterwards panics, before any
// call — and one frozen module serves every engine built with it.
func TestHostModuleFrozenAtConstruction(t *testing.T) {
	hm := NewHostModule("env")
	HostFunc1(hm, "triple", func(_ *HostContext, v int64) (int64, error) { return 3 * v, nil })
	engines := []*Engine{engineWith(Baseline64(), hm), engineWith(FullHardening(), hm)}
	for _, eng := range engines {
		defer eng.Close()
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("defining a function after NewEngine did not panic")
			}
		}()
		HostFunc1(hm, "late", func(_ *HostContext, v int64) (int64, error) { return v, nil })
	}()

	for i, eng := range engines {
		mod, err := eng.CompileSource(`
			extern long triple(long v);
			long run(long x) { return triple(x) + 1; }`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Call(context.Background(), mod, "run", []uint64{14})
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if res.Values[0] != 43 {
			t.Errorf("engine %d: run(14) = %d, want 43", i, res.Values[0])
		}
	}
}

func TestBlockingHostCallTimesOutWithTrapInterrupted(t *testing.T) {
	// The acceptance scenario: a guest parked inside a blocking host
	// function is interruptible — Engine.Call with WithTimeout returns
	// TrapInterrupted, because the host observes the call context.
	hm := NewHostModule("env")
	entered := make(chan struct{}, 1)
	HostFunc0(hm, "block", func(hc *HostContext) (int64, error) {
		entered <- struct{}{}
		<-hc.Context().Done() // a blocking syscall standing in
		return 0, hc.Context().Err()
	})
	eng := engineWith(Baseline64(), hm)
	defer eng.Close()
	mod, err := eng.CompileSource(`
		extern long block();
		long run(long x) { return block(); }`)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel only once the guest is provably parked inside the host
	// function: a fixed timeout can expire during the first checkout
	// (instantiation under a loaded CPU), which legitimately returns a
	// bare context error instead of the trap this test pins down.
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-entered:
			entered <- struct{}{} // re-arm for the entry check below
		case <-time.After(10 * time.Second):
		}
		cancel()
	}()
	_, err = eng.Call(ctx, mod, "run", []uint64{0})
	if !IsInterrupted(err) {
		t.Fatalf("blocking host call = %v, want interrupted", err)
	}
	var trap *exec.Trap
	if !errors.As(err, &trap) || trap.Code != exec.TrapInterrupted {
		t.Fatalf("err = %v, want TrapInterrupted trap", err)
	}
	select {
	case <-entered:
	default:
		t.Fatal("host function never entered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("interruption took %v", elapsed)
	}
	// The pooled instance survives for the next call.
	if _, err := eng.Call(context.Background(), mod, "run", []uint64{0},
		WithTimeout(20*time.Millisecond)); !IsInterrupted(err) {
		t.Errorf("second call = %v, want interrupted", err)
	}
}

func TestLinkErrorsThroughPublicAPI(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	missing, err := eng.CompileSource(`
		extern long nosuch(long x);
		long run(long x) { return nosuch(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Call(context.Background(), missing, "run", []uint64{1})
	if !errors.Is(err, ErrUnresolvedImport) {
		t.Fatalf("missing import = %v, want ErrUnresolvedImport", err)
	}
	var le *LinkError
	if !errors.As(err, &le) || le.Module != "env" || le.Name != "nosuch" {
		t.Fatalf("LinkError detail = %+v", le)
	}

	// The built-in env.sqrt is f64→f64; declaring it long→long must be
	// a structured type mismatch.
	eng2 := NewEngine(FullHardening())
	defer eng2.Close()
	mismatched, err := eng2.CompileSource(`
		extern long sqrt(long x);
		long run(long x) { return sqrt(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng2.Call(context.Background(), mismatched, "run", []uint64{1})
	if !errors.Is(err, ErrImportTypeMismatch) {
		t.Fatalf("mismatched import = %v, want ErrImportTypeMismatch", err)
	}
	if !errors.As(err, &le) || le.Name != "sqrt" {
		t.Fatalf("LinkError detail = %+v", le)
	}
}

func TestHostModuleRawSlot(t *testing.T) {
	// The raw Func slot handles signatures the typed adapters do not.
	hm := NewHostModule("env")
	hm.Func("mix", FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}},
		func(_ *HostContext, args []uint64) ([]uint64, error) {
			return []uint64{args[0] ^ args[1]}, nil
		})
	eng := engineWith(Baseline64(), hm)
	defer eng.Close()
	mod, err := eng.CompileSource(`
		extern long mix(long a, long b);
		long run(long x) { return mix(x, 255); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Call(context.Background(), mod, "run", []uint64{0xF0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 0x0F {
		t.Errorf("mix = %#x", res.Values[0])
	}
}

// wasiWriteModule builds a wasm64 module importing
// wasi_snapshot_preview1.fd_write and exporting write(iovs, len,
// nwritten) that forwards to it with fd=1.
func wasiWriteModule() *wasm.Module {
	m := &wasm.Module{}
	tFd := m.AddType(wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I64, wasm.I64, wasm.I64},
		Results: []wasm.ValType{wasm.I32},
	})
	tGo := m.AddType(wasm.FuncType{
		Params:  []wasm.ValType{wasm.I64, wasm.I64, wasm.I64},
		Results: []wasm.ValType{wasm.I32},
	})
	m.Imports = []wasm.Import{{Module: "wasi_snapshot_preview1", Name: "fd_write", TypeIdx: tFd}}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: tGo, Body: []wasm.Instr{
		wasm.I32Const(1),
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.LocalGet(2),
		wasm.Call(0), wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "write", Kind: wasm.ExportFunc, Idx: 1}}
	return m
}

// wasiStateModule builds a wasm64 module exporting now() and rand(),
// which read one WASI clock_time_get value and eight random_get bytes
// through guest memory.
func wasiStateModule() *wasm.Module {
	m := &wasm.Module{}
	tClock := m.AddType(wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I64, wasm.I64},
		Results: []wasm.ValType{wasm.I32},
	})
	tRand := m.AddType(wasm.FuncType{
		Params:  []wasm.ValType{wasm.I64, wasm.I64},
		Results: []wasm.ValType{wasm.I32},
	})
	tRead := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{
		{Module: "wasi_snapshot_preview1", Name: "clock_time_get", TypeIdx: tClock},
		{Module: "wasi_snapshot_preview1", Name: "random_get", TypeIdx: tRand},
	}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Funcs = []wasm.Function{
		{TypeIdx: tRead, Body: []wasm.Instr{
			wasm.I32Const(0), wasm.I64Const(0), wasm.I64Const(64), wasm.Call(0), wasm.Op(wasm.OpDrop),
			wasm.I64Const(64), wasm.Load(wasm.OpI64Load, 0), wasm.End(),
		}},
		{TypeIdx: tRead, Body: []wasm.Instr{
			wasm.I64Const(128), wasm.I64Const(8), wasm.Call(1), wasm.Op(wasm.OpDrop),
			wasm.I64Const(128), wasm.Load(wasm.OpI64Load, 0), wasm.End(),
		}},
	}
	m.Exports = []wasm.Export{
		{Name: "now", Kind: wasm.ExportFunc, Idx: 2},
		{Name: "rand", Kind: wasm.ExportFunc, Idx: 3},
	}
	return m
}

// TestWASIStateIsImageState: the WASI clock and random_get stream are
// part of an instance's image. Pooled calls on one module — which
// tenants of a content-addressed registry share — each read the same
// clock value and the same random bytes, and with an init that reads
// the clock every fork continues from the value after init.
func TestWASIStateIsImageState(t *testing.T) {
	ctx := context.Background()
	read := func(t *testing.T, call func(fn string) (Result, error), fn string) uint64 {
		t.Helper()
		res, err := call(fn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		return res.Values[0]
	}

	t.Run("pooled", func(t *testing.T) {
		eng := NewEngine(FullHardening())
		defer eng.Close()
		mod := &Module{wasm: wasiStateModule()}
		call := func(fn string) (Result, error) { return eng.Call(ctx, mod, fn, nil) }
		firstNow, firstRand := read(t, call, "now"), read(t, call, "rand")
		if firstNow != 1_000_001_000 {
			t.Errorf("first now = %d, want 1000001000", firstNow)
		}
		for i := 0; i < 3; i++ {
			if got := read(t, call, "now"); got != firstNow {
				t.Errorf("pooled call %d: now = %d, want %d", i, got, firstNow)
			}
			if got := read(t, call, "rand"); got != firstRand {
				t.Errorf("pooled call %d: rand = %#x, want %#x", i, got, firstRand)
			}
		}
	})

	t.Run("init", func(t *testing.T) {
		cfg := FullHardening()
		cfg.ExtendedSandboxes = true // two forks live side by side
		eng := NewEngine(cfg)
		defer eng.Close()
		mod := &Module{wasm: wasiStateModule()}
		snap, err := eng.Snapshot(ctx, mod, WithInit("now"))
		if err != nil {
			t.Fatal(err)
		}
		const afterInit = 1_000_002_000 // init read 1000001000
		for i := 0; i < 3; i++ {
			call := func(fn string) (Result, error) { return eng.Call(ctx, mod, fn, nil) }
			if got := read(t, call, "now"); got != afterInit {
				t.Errorf("pooled call %d: now = %d, want %d", i, got, afterInit)
			}
		}
		for _, name := range []string{"a", "b"} {
			fork, err := eng.NewFromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			call := func(fn string) (Result, error) { return fork.Call(ctx, fn, nil) }
			if got := read(t, call, "now"); got != afterInit {
				t.Errorf("fork %s: now = %d, want %d", name, got, afterInit)
			}
		}
	})
}

func TestWASIFdWriteRoundTripThroughMemoryView(t *testing.T) {
	var out bytes.Buffer
	cfg := Baseline64()
	cfg.Stdout = &out
	inst, err := NewRuntime(cfg).Instantiate(&Module{wasm: wasiWriteModule()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	// Lay out "hello wasi" at 64 and an iovec {base=64, len=11} at 128.
	mem := inst.Memory()
	copy(mem[64:], "hello wasi\n")
	raw := inst.Raw().HostContext(nil).Memory()
	if err := raw.WriteU64(128, 64); err != nil {
		t.Fatal(err)
	}
	if err := raw.WriteU64(136, 11); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call(context.Background(), "write", []uint64{128, 1, 256})
	if err != nil {
		t.Fatal(err)
	}
	if int32(res.Values[0]) != 0 {
		t.Fatalf("fd_write errno = %d", int32(res.Values[0]))
	}
	if out.String() != "hello wasi\n" {
		t.Errorf("stdout = %q", out.String())
	}
	n, err := raw.ReadU64(256)
	if err != nil || n != 11 {
		t.Errorf("nwritten = %d, %v", n, err)
	}
}

func TestConcurrentCallsWithHostModule(t *testing.T) {
	// Pooled instances share one resolved import table; hammer it from
	// several goroutines to prove the snapshot (and the per-instance
	// host state behind it) is race-free.
	hm := NewHostModule("env")
	HostFunc1(hm, "twice", func(_ *HostContext, v int64) (int64, error) { return 2 * v, nil })
	eng := engineWith(FullHardening(), hm)
	defer eng.Close()
	mod, err := eng.CompileSource(`
		extern char* malloc(long n);
		extern long twice(long v);
		long run(long n) {
		    long* a = (long*)malloc(n * 8);
		    long s = 0;
		    for (long i = 0; i < n; i++) { a[i] = twice(i); s = s + a[i]; }
		    return s;
		}`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := eng.Call(context.Background(), mod, "run", []uint64{50})
				if err != nil {
					errs <- err
					return
				}
				if res.Values[0] != 2450 {
					errs <- errors.New("wrong sum")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHostStrParameter(t *testing.T) {
	var seen []string
	var mu sync.Mutex
	hm := NewHostModule("env")
	HostVoid1(hm, "log_str", func(_ *HostContext, s HostStr) error {
		mu.Lock()
		seen = append(seen, string(s))
		mu.Unlock()
		return nil
	})
	eng := engineWith(FullHardening(), hm)
	defer eng.Close()
	mod, err := eng.CompileSource(`
		extern void log_str(char* p, long n);
		long run(long x) {
		    log_str("host api", 8);
		    return 0;
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Call(context.Background(), mod, "run", []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !strings.Contains(seen[0], "host api") {
		t.Errorf("log_str saw %q", seen)
	}
}
