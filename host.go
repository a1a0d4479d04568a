// Host-module facade: the embedder-facing surface for defining host
// functions. Types alias the exec implementations so values flow
// between the facade and the execution engine without wrappers; the
// generic adapter functions re-export the typed lowering.
package cage

import (
	"cage/internal/exec"
	"cage/internal/wasm"
)

// HostModule is a named module of host functions guests import
// ("env.log", "mymod.get_config", ...). Build one with NewHostModule,
// define functions with the typed adapters (HostFunc0..HostFunc4,
// HostVoid0..HostVoid4) or the raw Func slot, and pass it in
// Config.HostModules:
//
//	hm := cage.NewHostModule("env")
//	cage.HostFunc2(hm, "add", func(hc *cage.HostContext, a, b int64) (int64, error) {
//	    return a + b, nil
//	})
//	cfg := cage.FullHardening()
//	cfg.HostModules = []*cage.HostModule{hm}
//	eng := cage.NewEngine(cfg)
//
// NewRuntime (and so NewEngine) freezes the module — a later definition
// panics — so the host surface is fixed for the runtime's life and
// resolved import tables are snapshotted per compiled module and
// shared by every pooled instance.
type HostModule = exec.HostModule

// NewHostModule creates an empty embedder host module named name, using
// the wasm64 pointer ABI (call Ptr32 before defining functions for an
// ILP32 module).
func NewHostModule(name string) *HostModule { return exec.NewHostModule(name) }

// HostContext is passed to every host function: the in-flight call's
// context (Context), a bounds-checked view of guest memory (Memory),
// fuel accounting against the active meter chain (ConsumeFuel), and
// re-entrant guest calls (Call). See exec.HostContext for details.
type HostContext = exec.HostContext

// HostMemory is the bounds-checked host view of guest linear memory:
// accepts (and untags) guest pointers, charges the timing model,
// enforces the guest-visible bounds, and — running with runtime
// privileges — bypasses MTE tag checks.
type HostMemory = exec.Memory

// HostPtr marks a guest-pointer parameter or result in typed host
// signatures: parameters arrive untagged, results pass through (a
// tagged pointer keeps its tag).
type HostPtr = exec.Ptr

// HostStr marks a guest string parameter: (pointer, length) in the
// wasm signature, materialized through the bounds-checked memory view.
type HostStr = exec.Str

// HostParam constrains typed host-function parameters.
type HostParam = exec.HostParam

// HostResult constrains typed host-function results.
type HostResult = exec.HostResult

// HostFn is the raw-slot host callback for signatures the typed
// adapters do not cover; args and results are raw 64-bit value bits.
type HostFn = exec.HostFn

// ValType is a raw wasm value type, for raw-slot signatures.
type ValType = wasm.ValType

// Raw wasm value types.
const (
	I32 = wasm.I32
	I64 = wasm.I64
	F32 = wasm.F32
	F64 = wasm.F64
)

// FuncType is a raw wasm function signature, for raw-slot definitions
// via HostModule.Func.
type FuncType = wasm.FuncType

// Structured link errors. Instantiation (and therefore Engine.Call on
// a module with unresolvable imports) fails with a *LinkError carrying
// the import's module/name and the types involved; errors.Is matches
// the sentinels.
var (
	ErrUnresolvedImport   = exec.ErrUnresolvedImport
	ErrImportTypeMismatch = exec.ErrImportTypeMismatch
)

// LinkError is a structured link failure (which import, declared vs
// offered type).
type LinkError = exec.LinkError

// Typed adapters: each derives the wasm signature from the Go
// signature and lowers the typed function onto a raw host slot.
// Supported parameter types: int32, uint32, int64, uint64, float64,
// HostPtr, HostStr; results: the same minus HostStr.

// HostVoid0 defines name as func() with no results.
func HostVoid0(hm *HostModule, name string, fn func(*HostContext) error) *HostModule {
	return exec.Void0(hm, name, fn)
}

// HostVoid1 defines name as func(A) with no results.
func HostVoid1[A HostParam](hm *HostModule, name string, fn func(*HostContext, A) error) *HostModule {
	return exec.Void1(hm, name, fn)
}

// HostVoid2 defines name as func(A, B) with no results.
func HostVoid2[A, B HostParam](hm *HostModule, name string, fn func(*HostContext, A, B) error) *HostModule {
	return exec.Void2(hm, name, fn)
}

// HostVoid3 defines name as func(A, B, C) with no results.
func HostVoid3[A, B, C HostParam](hm *HostModule, name string, fn func(*HostContext, A, B, C) error) *HostModule {
	return exec.Void3(hm, name, fn)
}

// HostVoid4 defines name as func(A, B, C, D) with no results.
func HostVoid4[A, B, C, D HostParam](hm *HostModule, name string, fn func(*HostContext, A, B, C, D) error) *HostModule {
	return exec.Void4(hm, name, fn)
}

// HostFunc0 defines name as func() R.
func HostFunc0[R HostResult](hm *HostModule, name string, fn func(*HostContext) (R, error)) *HostModule {
	return exec.Func0(hm, name, fn)
}

// HostFunc1 defines name as func(A) R.
func HostFunc1[A HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A) (R, error)) *HostModule {
	return exec.Func1(hm, name, fn)
}

// HostFunc2 defines name as func(A, B) R.
func HostFunc2[A, B HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B) (R, error)) *HostModule {
	return exec.Func2(hm, name, fn)
}

// HostFunc3 defines name as func(A, B, C) R.
func HostFunc3[A, B, C HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B, C) (R, error)) *HostModule {
	return exec.Func3(hm, name, fn)
}

// HostFunc4 defines name as func(A, B, C, D) R.
func HostFunc4[A, B, C, D HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B, C, D) (R, error)) *HostModule {
	return exec.Func4(hm, name, fn)
}
