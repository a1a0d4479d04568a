package exec

import (
	"errors"
	"testing"

	"cage/internal/core"
	"cage/internal/ir"
	"cage/internal/wasm"
)

// mistypedModule is well formed enough to lower and instantiate under
// every preset — ir.Lower tracks no value types, and its memory is
// 64-bit — but invalid: its function returns an i32 where its type
// promises an i64. Only wasm.Validate rejects it.
func mistypedModule() *wasm.Module {
	m := &wasm.Module{}
	ty := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []wasm.Function{{TypeIdx: ty, Body: []wasm.Instr{wasm.I32Const(7), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	return m
}

// TestEntryPointsValidate: a birth that adopts a program does not
// validate its module, so every way to make a program or an instance
// without one must: LowerModule, and NewInstance lowering privately.
func TestEntryPointsValidate(t *testing.T) {
	m := mistypedModule()
	if _, err := ir.Lower(m, LowerConfig(m, Config{})); err != nil {
		t.Fatalf("the module must lower, so that validation alone rejects it: %v", err)
	}
	if err := wasm.Validate(m); err == nil {
		t.Fatal("wasm.Validate accepts the mistyped module")
	}
	var verr *wasm.ValidationError
	feats := core.CageAll()
	if _, err := LowerModule(m, Config{Features: feats}); !errors.As(err, &verr) {
		t.Errorf("LowerModule: %v, want a validation error", err)
	}
	alloc := core.NewSandboxAllocator(core.NewPolicy(feats))
	if _, err := NewInstance(m, Config{Features: feats, Sandboxes: alloc}); !errors.As(err, &verr) {
		t.Errorf("NewInstance without a program: %v, want a validation error", err)
	}
	if n := alloc.InUse(); n != 0 {
		t.Errorf("a rejected instantiation holds %d sandbox tags, want 0", n)
	}
}

// TestExhaustedBudgetBirthAllocatesNothing: the sandbox tag is the
// first thing a birth takes, so an attempt on a spent §7.4 budget
// returns core.ErrSandboxesExhausted having allocated nothing and
// leaves the budget as it found it.
func TestExhaustedBudgetBirthAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	m := elisionModule()
	cfg := Config{Features: core.CageAll(), Sandboxes: core.NewSandboxAllocator(core.NewPolicy(core.CageAll()))}
	prog, err := LowerModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Program = prog
	holder, err := NewInstance(m, cfg) // full's one tag
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	inUse := cfg.Sandboxes.InUse()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := NewInstance(m, cfg); !errors.Is(err, core.ErrSandboxesExhausted) {
			panic("a birth on a spent budget did not fail with ErrSandboxesExhausted")
		}
	}); n != 0 {
		t.Errorf("a birth attempt on an exhausted budget allocates %v times, want 0", n)
	}
	if n := cfg.Sandboxes.InUse(); n != inUse {
		t.Errorf("after failed births %d tags are in use, want %d", n, inUse)
	}
}
