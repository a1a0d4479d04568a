package exec_test

// Snapshot/restore differential tests: an instance forked from a
// post-start snapshot must be observationally identical to a freshly
// instantiated one — same results, same trap codes, and same per-call
// timing-model event counts — across every sandbox configuration, so
// warm checkouts change instantiation cost and nothing else.

import (
	"context"
	"errors"
	"testing"

	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// snapshotConfigs are the four sandbox configurations the differential
// suite runs under, mirroring differential_test.go.
var snapshotConfigs = []struct {
	name  string
	opts  codegen.Options
	feats core.Features
}{
	{"baseline64", codegen.Options{Wasm64: true}, core.Features{}},
	{"memsafety", codegen.Options{Wasm64: true, StackSanitizer: true},
		core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
	{"sandbox", codegen.Options{Wasm64: true},
		core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
	{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
		core.CageAll()},
}

// newForkedKernelInstance snapshots a pristine builder instance and
// instantiates a fork from the image via Config.Snapshot, with the
// hardened allocator wired up like newKernelInstance does.
func newForkedKernelInstance(t testing.TB, m *wasm.Module, feats core.Features, ctr *arch.Counter) *exec.Instance {
	t.Helper()
	var bctr arch.Counter
	builder := newKernelInstance(t, m, feats, &bctr)
	snap, err := builder.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	host := &alloc.Host{}
	inst, err := exec.NewInstance(m, exec.Config{
		Features: feats, HostModules: polybench.HostModules(), HostData: host,
		Seed: 7777, Counter: ctr, Snapshot: snap,
	})
	if err != nil {
		t.Fatalf("instantiate from snapshot: %v", err)
	}
	heapBase, ok := inst.GlobalValue("__heap_base")
	if !ok {
		t.Fatal("module lacks __heap_base")
	}
	host.A, err = alloc.New(inst, heapBase)
	if err != nil {
		t.Fatalf("allocator: %v", err)
	}
	return inst
}

// TestForkMatchesFreshOnPolybench pins the fork-vs-fresh contract on
// real kernels: results, checksums, and every per-call event count must
// be identical whether the instance was built from scratch or forked
// from a snapshot.
func TestForkMatchesFreshOnPolybench(t *testing.T) {
	kernels := []string{"gemm", "2mm", "atax", "jacobi-1d", "durbin"}
	for _, name := range kernels {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range snapshotConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				m, err := polybench.Build(k, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}

				var ctrFresh arch.Counter
				fresh := newKernelInstance(t, m, cfg.feats, &ctrFresh)
				freshRes, freshErr := fresh.InvokeWith(context.Background(), "run", []uint64{uint64(k.TestN)}, exec.CallOptions{})

				var ctrFork arch.Counter
				fork := newForkedKernelInstance(t, m, cfg.feats, &ctrFork)
				forkRes, forkErr := fork.InvokeWith(context.Background(), "run", []uint64{uint64(k.TestN)}, exec.CallOptions{})

				if (freshErr == nil) != (forkErr == nil) {
					t.Fatalf("error mismatch: fresh=%v fork=%v", freshErr, forkErr)
				}
				if freshErr != nil {
					t.Fatalf("kernel failed under both paths: %v", freshErr)
				}
				if len(forkRes.Values) != len(freshRes.Values) {
					t.Fatalf("result arity: fresh=%d fork=%d", len(freshRes.Values), len(forkRes.Values))
				}
				for i := range freshRes.Values {
					if forkRes.Values[i] != freshRes.Values[i] {
						t.Fatalf("result[%d]: fresh=%#x fork=%#x", i, freshRes.Values[i], forkRes.Values[i])
					}
				}
				// The checksum must also match the C reference.
				if got, want := exec.F64Val(forkRes.Values[0]), k.Reference(k.TestN); got != want {
					diff := got - want
					if diff < 0 {
						diff = -diff
					}
					scale := want
					if scale < 0 {
						scale = -scale
					}
					if diff > 1e-9*scale {
						t.Fatalf("checksum %g, reference %g", got, want)
					}
				}
				// Per-call event identity: the fork skipped instantiation
				// work, not call work — Fig. 14/15 per-invocation numbers
				// must be unchanged.
				for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
					if forkRes.Events.Get(ev) != freshRes.Events.Get(ev) {
						t.Errorf("event %v: fresh=%d fork=%d", ev, freshRes.Events.Get(ev), forkRes.Events.Get(ev))
					}
				}
				if forkRes.Fuel != freshRes.Fuel {
					t.Errorf("fuel: fresh=%d fork=%d", freshRes.Fuel, forkRes.Fuel)
				}
			})
		}
	}
}

// TestForkMatchesFreshOnTrap pins trap identity: a fuel-starved call
// must trap with the same code after consuming the same fuel on a fork
// as on a fresh instance — metering determinism survives forking.
func TestForkMatchesFreshOnTrap(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range snapshotConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			m, err := polybench.Build(k, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := exec.CallOptions{Fuel: 20_000}

			var ctrFresh arch.Counter
			fresh := newKernelInstance(t, m, cfg.feats, &ctrFresh)
			freshRes, freshErr := fresh.InvokeWith(context.Background(), "run", []uint64{uint64(k.TestN)}, opts)

			var ctrFork arch.Counter
			fork := newForkedKernelInstance(t, m, cfg.feats, &ctrFork)
			forkRes, forkErr := fork.InvokeWith(context.Background(), "run", []uint64{uint64(k.TestN)}, opts)

			var freshTrap, forkTrap *exec.Trap
			if !errors.As(freshErr, &freshTrap) || freshTrap.Code != exec.TrapFuelExhausted {
				t.Fatalf("fresh: err = %v, want fuel exhaustion", freshErr)
			}
			if !errors.As(forkErr, &forkTrap) || forkTrap.Code != exec.TrapFuelExhausted {
				t.Fatalf("fork: err = %v, want fuel exhaustion", forkErr)
			}
			if freshRes.Fuel != forkRes.Fuel {
				t.Errorf("fuel at trap: fresh=%d fork=%d", freshRes.Fuel, forkRes.Fuel)
			}
			for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
				if forkRes.Events.Get(ev) != freshRes.Events.Get(ev) {
					t.Errorf("event %v at trap: fresh=%d fork=%d", ev, freshRes.Events.Get(ev), forkRes.Events.Get(ev))
				}
			}
		})
	}
}

// constModule builds a wasm64 module exporting f() -> i64 const v.
func constModule(v uint64) *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 16, HasMax: true}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: []wasm.Instr{{Op: wasm.OpI64Const, X: v}, {Op: wasm.OpEnd}}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	return m
}

// TestSnapshotLifecycleErrors pins the misuse surface: snapshots of
// closed instances, restores across modules, and restores across
// feature sets are errors, not corruption.
func TestSnapshotLifecycleErrors(t *testing.T) {
	m := constModule(7)
	inst, err := exec.NewInstance(m, exec.Config{Features: core.Features{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot holds no OS resource: Close releases nothing, and the
	// image installs after it as before.
	snap.Close()
	if err := inst.RestoreFromSnapshot(snap, 3); err != nil {
		t.Errorf("restore after Snapshot.Close: %v", err)
	}

	// Restoring into an instance of a different module must fail.
	other := constModule(8)
	oinst, err := exec.NewInstance(other, exec.Config{Features: core.Features{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := oinst.RestoreFromSnapshot(snap, 3); err == nil {
		t.Error("restore across modules succeeded")
	}

	// Restoring under different features must fail.
	finst, err := exec.NewInstance(m, exec.Config{Features: core.Features{Sandbox: true, MTEMode: mte.ModeSync}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := finst.RestoreFromSnapshot(snap, 5); err == nil {
		t.Error("restore across feature sets succeeded")
	}

	inst.Close()
	if _, err := inst.Snapshot(); err == nil {
		t.Error("snapshot of closed instance succeeded")
	}
	if err := inst.RestoreFromSnapshot(snap, 6); err == nil {
		t.Error("restore into closed instance succeeded")
	}
}
