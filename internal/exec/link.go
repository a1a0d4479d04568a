package exec

import (
	"errors"
	"fmt"

	"cage/internal/wasm"
)

// HostFunc is a function provided by the embedder (e.g. WASI or the
// hardened allocator): a raw host slot. Args and results are raw 64-bit
// value bits. Most embedders define host functions through HostModule's
// typed adapters, which lower onto this form.
type HostFunc struct {
	Type wasm.FuncType
	Fn   HostFn
}

// Link-failure sentinels, carried by LinkError and matchable with
// errors.Is.
var (
	// ErrUnresolvedImport marks an import no host module provides.
	ErrUnresolvedImport = errors.New("unresolved import")
	// ErrImportTypeMismatch marks an import whose host signature does
	// not match the module's declared type.
	ErrImportTypeMismatch = errors.New("import type mismatch")
)

// LinkError is a structured instantiation-time link failure: which
// import failed (module/name), what the guest required, and — for type
// mismatches — what the host offered. It wraps ErrUnresolvedImport or
// ErrImportTypeMismatch for errors.Is dispatch.
type LinkError struct {
	// Module and Name identify the failing import.
	Module, Name string
	// Want is the function type the guest module declares.
	Want wasm.FuncType
	// Have is the host function's type (zero for unresolved imports).
	Have wasm.FuncType
	// Err is ErrUnresolvedImport or ErrImportTypeMismatch.
	Err error
}

// Error implements the error interface.
func (e *LinkError) Error() string {
	if errors.Is(e.Err, ErrImportTypeMismatch) {
		return fmt.Sprintf("exec: import %s.%s: host type %v does not match %v",
			e.Module, e.Name, e.Have, e.Want)
	}
	return fmt.Sprintf("exec: unresolved import %s.%s (want %v)", e.Module, e.Name, e.Want)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *LinkError) Unwrap() error { return e.Err }

// linkKey keys host functions by the (module, name) pair. A struct key
// cannot collide the way the historical module+"."+name string did
// (module "a.b"/func "c" vs module "a"/func "b.c").
type linkKey struct {
	module, name string
}

// ImportTable is a resolved import list for one module: the result of
// linking, snapshotted so every instance of the module — pooled or
// fresh — shares one immutable table instead of re-resolving (and
// re-checking) each import per instantiation.
type ImportTable struct {
	funcs []HostFunc
	types []wasm.FuncType
}

// ResolveImports links every import of m against the given host
// modules (freezing them), returning the shareable import-table
// snapshot or the first structured LinkError. It is the one linking
// entry point: NewInstance without Config.Imports calls it on
// Config.HostModules. Two modules sharing an import-module name may
// both contribute — embedders extend "env" alongside the built-ins this
// way — but defining the same (module, name) twice is an error.
func ResolveImports(m *wasm.Module, mods ...*HostModule) (*ImportTable, error) {
	funcs := make(map[linkKey]HostFunc)
	for _, hm := range mods {
		hm.Freeze()
		for _, name := range hm.names {
			k := linkKey{hm.name, name}
			if _, dup := funcs[k]; dup {
				return nil, fmt.Errorf("exec: host function %s.%s defined twice", hm.name, name)
			}
			funcs[k] = hm.funcs[name]
		}
	}
	t := &ImportTable{}
	for _, im := range m.Imports {
		want := m.Types[im.TypeIdx]
		fn, ok := funcs[linkKey{im.Module, im.Name}]
		if !ok {
			return nil, &LinkError{Module: im.Module, Name: im.Name, Want: want, Err: ErrUnresolvedImport}
		}
		if !fn.Type.Equal(want) {
			return nil, &LinkError{Module: im.Module, Name: im.Name, Want: want, Have: fn.Type, Err: ErrImportTypeMismatch}
		}
		t.funcs = append(t.funcs, fn)
		t.types = append(t.types, want)
	}
	return t, nil
}

// matches verifies the snapshot still fits module m (same import count
// and types), guarding against a table cached for a different module.
func (t *ImportTable) matches(m *wasm.Module) error {
	if len(t.types) != len(m.Imports) {
		return fmt.Errorf("exec: import table has %d entries, module declares %d imports",
			len(t.types), len(m.Imports))
	}
	for i, im := range m.Imports {
		if !t.types[i].Equal(m.Types[im.TypeIdx]) {
			return fmt.Errorf("exec: import table entry %d (%s.%s) has type %v, module wants %v",
				i, im.Module, im.Name, t.types[i], m.Types[im.TypeIdx])
		}
	}
	return nil
}
