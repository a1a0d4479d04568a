package exec

import (
	"fmt"
	"sync"

	"cage/internal/wasm"
)

// HostModule is the embedder-facing builder for a named module of host
// functions ("env", "wasi_snapshot_preview1", an embedder's own
// "mymod"). Functions are defined either through the raw Func slot or
// through the typed generic adapters (Func0..Func4, Void0..Void4),
// which derive the wasm signature from the Go signature and marshal
// arguments and results.
//
// A HostModule is mutable until it is frozen: building a runtime with
// it (the facade's NewRuntime / NewEngine) or linking it into an
// instance (ResolveImports) freezes it, after which further definitions
// panic. The host surface is thus fixed before the first call, so
// resolved import tables can be snapshotted and shared by every pooled
// instance without locking.
type HostModule struct {
	name  string
	ptr32 bool

	mu     sync.Mutex
	frozen bool
	funcs  map[string]HostFunc
	names  []string // definition order, for deterministic merging
}

// NewHostModule creates an empty host module named name. The module
// uses the wasm64 pointer ABI (guest pointers are i64); call Ptr32
// first for an ILP32 module.
func NewHostModule(name string) *HostModule {
	return &HostModule{name: name, funcs: make(map[string]HostFunc)}
}

// Name returns the import-module name guests use.
func (hm *HostModule) Name() string { return hm.name }

// Ptr32 switches the module to the ILP32 pointer ABI: Ptr and Str
// parameters lower to i32 slots and pointer results are truncated to 32
// bits. It must be called before any function is defined.
func (hm *HostModule) Ptr32() *HostModule {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	if len(hm.funcs) > 0 {
		panic(fmt.Sprintf("exec: host module %q: Ptr32 must precede function definitions", hm.name))
	}
	hm.ptr32 = true
	return hm
}

// HostFn is the raw-slot host callback: args and results are raw
// 64-bit value bits, exactly as the guest passed them. The typed
// adapters lower onto this form.
type HostFn func(hc *HostContext, args []uint64) ([]uint64, error)

// Func defines a host function under the given raw wasm signature.
// It panics on a duplicate name or a frozen module (host surfaces are
// assembled at startup; both are programming errors, not runtime
// conditions).
func (hm *HostModule) Func(name string, typ wasm.FuncType, fn HostFn) *HostModule {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	if hm.frozen {
		panic(fmt.Sprintf("exec: host module %q is frozen; define %s before building a runtime with it", hm.name, name))
	}
	if _, dup := hm.funcs[name]; dup {
		panic(fmt.Sprintf("exec: host module %q: duplicate function %q", hm.name, name))
	}
	hm.funcs[name] = HostFunc{Type: typ, Fn: fn}
	hm.names = append(hm.names, name)
	return hm
}

// Freeze makes the module immutable. Linking freezes implicitly; Freeze
// is for embedders that want to hand a module out read-only.
func (hm *HostModule) Freeze() {
	hm.mu.Lock()
	hm.frozen = true
	hm.mu.Unlock()
}

// Lookup resolves a function by name (for direct host-side invocation,
// e.g. in tests).
func (hm *HostModule) Lookup(name string) (HostFunc, bool) {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	fn, ok := hm.funcs[name]
	return fn, ok
}

// Typed adapter value kinds.

// Ptr marks a guest-pointer parameter or result in typed host
// signatures. As a parameter it arrives untagged (MTE tag and PAC bits
// stripped, truncated to the module's pointer width) so it can be
// passed straight to the Memory view; as a result it is truncated to
// the pointer width but otherwise passed through, so a tagged pointer
// (e.g. from the hardened allocator) keeps its tag.
type Ptr uint64

// Str marks a guest string parameter: a (pointer, length) pair in the
// wasm signature, materialized as a Go string through the
// bounds-checked Memory view before the host function runs.
type Str string

// HostParam constrains typed host-function parameters.
type HostParam interface {
	int32 | uint32 | int64 | uint64 | float64 | Ptr | Str
}

// HostResult constrains typed host-function results.
type HostResult interface {
	int32 | uint32 | int64 | uint64 | float64 | Ptr
}

// ptrType is the wasm value type of the module's pointers.
func (hm *HostModule) ptrType() wasm.ValType {
	if hm.ptr32 {
		return wasm.I32
	}
	return wasm.I64
}

// appendParam appends T's lowered slot type(s) to sig.
func appendParam[T HostParam](hm *HostModule, sig []wasm.ValType) []wasm.ValType {
	var z T
	switch any(z).(type) {
	case int32, uint32:
		return append(sig, wasm.I32)
	case int64, uint64:
		return append(sig, wasm.I64)
	case float64:
		return append(sig, wasm.F64)
	case Ptr:
		return append(sig, hm.ptrType())
	case Str:
		return append(sig, hm.ptrType(), hm.ptrType())
	}
	panic("exec: unsupported host parameter type")
}

// resultType is T's lowered result type.
func resultType[T HostResult](hm *HostModule) wasm.ValType {
	var z T
	switch any(z).(type) {
	case int32, uint32:
		return wasm.I32
	case int64, uint64:
		return wasm.I64
	case float64:
		return wasm.F64
	case Ptr:
		return hm.ptrType()
	}
	panic("exec: unsupported host result type")
}

// decodeParam consumes T's slot(s) from args at *i.
func decodeParam[T HostParam](hc *HostContext, ptr32 bool, args []uint64, i *int) (T, error) {
	var z T
	var v any
	switch any(z).(type) {
	case int32:
		v = int32(uint32(args[*i]))
		*i++
	case uint32:
		v = uint32(args[*i])
		*i++
	case int64:
		v = int64(args[*i])
		*i++
	case uint64:
		v = args[*i]
		*i++
	case float64:
		v = F64Val(args[*i])
		*i++
	case Ptr:
		v = Ptr(untagPtr(args[*i], ptr32))
		*i++
	case Str:
		p := untagPtr(args[*i], ptr32)
		n := untagPtr(args[*i+1], ptr32)
		*i += 2
		s, err := hc.Memory().ReadString(p, n)
		if err != nil {
			return z, err
		}
		v = Str(s)
	}
	return v.(T), nil
}

// encodeResult lowers r to its raw slot bits.
func encodeResult[R HostResult](ptr32 bool, r R) uint64 {
	switch v := any(r).(type) {
	case int32:
		return uint64(uint32(v))
	case uint32:
		return uint64(v)
	case int64:
		return uint64(v)
	case uint64:
		return v
	case float64:
		return F64Bits(v)
	case Ptr:
		if ptr32 {
			return uint64(v) & 0xFFFFFFFF
		}
		return uint64(v)
	}
	return 0
}

// Typed adapters. Go methods cannot be generic, so these are package
// functions taking the module first; each derives the wasm signature
// from the Go one and lowers the typed function onto a raw slot.

// Void0 defines name as func() with no results.
func Void0(hm *HostModule, name string, fn func(*HostContext) error) *HostModule {
	return hm.Func(name, wasm.FuncType{}, func(hc *HostContext, _ []uint64) ([]uint64, error) {
		return nil, fn(hc)
	})
}

// Void1 defines name as func(A) with no results.
func Void1[A HostParam](hm *HostModule, name string, fn func(*HostContext, A) error) *HostModule {
	typ := wasm.FuncType{Params: appendParam[A](hm, nil)}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		return nil, fn(hc, a)
	})
}

// Void2 defines name as func(A, B) with no results.
func Void2[A, B HostParam](hm *HostModule, name string, fn func(*HostContext, A, B) error) *HostModule {
	typ := wasm.FuncType{Params: appendParam[B](hm, appendParam[A](hm, nil))}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		return nil, fn(hc, a, b)
	})
}

// Func0 defines name as func() R.
func Func0[R HostResult](hm *HostModule, name string, fn func(*HostContext) (R, error)) *HostModule {
	typ := wasm.FuncType{Results: []wasm.ValType{resultType[R](hm)}}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, _ []uint64) ([]uint64, error) {
		r, err := fn(hc)
		if err != nil {
			return nil, err
		}
		return hc.result(encodeResult(p32, r)), nil
	})
}

// Func1 defines name as func(A) R.
func Func1[A HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A) (R, error)) *HostModule {
	typ := wasm.FuncType{Params: appendParam[A](hm, nil), Results: []wasm.ValType{resultType[R](hm)}}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		r, err := fn(hc, a)
		if err != nil {
			return nil, err
		}
		return hc.result(encodeResult(p32, r)), nil
	})
}

// Func2 defines name as func(A, B) R.
func Func2[A, B HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B) (R, error)) *HostModule {
	typ := wasm.FuncType{Params: appendParam[B](hm, appendParam[A](hm, nil)), Results: []wasm.ValType{resultType[R](hm)}}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		r, err := fn(hc, a, b)
		if err != nil {
			return nil, err
		}
		return hc.result(encodeResult(p32, r)), nil
	})
}

// Func3 defines name as func(A, B, C) R.
func Func3[A, B, C HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B, C) (R, error)) *HostModule {
	typ := wasm.FuncType{
		Params:  appendParam[C](hm, appendParam[B](hm, appendParam[A](hm, nil))),
		Results: []wasm.ValType{resultType[R](hm)},
	}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		c, err := decodeParam[C](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		r, err := fn(hc, a, b, c)
		if err != nil {
			return nil, err
		}
		return hc.result(encodeResult(p32, r)), nil
	})
}

// Func4 defines name as func(A, B, C, D) R.
func Func4[A, B, C, D HostParam, R HostResult](hm *HostModule, name string, fn func(*HostContext, A, B, C, D) (R, error)) *HostModule {
	typ := wasm.FuncType{
		Params:  appendParam[D](hm, appendParam[C](hm, appendParam[B](hm, appendParam[A](hm, nil)))),
		Results: []wasm.ValType{resultType[R](hm)},
	}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		c, err := decodeParam[C](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		d, err := decodeParam[D](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		r, err := fn(hc, a, b, c, d)
		if err != nil {
			return nil, err
		}
		return hc.result(encodeResult(p32, r)), nil
	})
}

// Void3 defines name as func(A, B, C) with no results.
func Void3[A, B, C HostParam](hm *HostModule, name string, fn func(*HostContext, A, B, C) error) *HostModule {
	typ := wasm.FuncType{Params: appendParam[C](hm, appendParam[B](hm, appendParam[A](hm, nil)))}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		c, err := decodeParam[C](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		return nil, fn(hc, a, b, c)
	})
}

// Void4 defines name as func(A, B, C, D) with no results.
func Void4[A, B, C, D HostParam](hm *HostModule, name string, fn func(*HostContext, A, B, C, D) error) *HostModule {
	typ := wasm.FuncType{Params: appendParam[D](hm, appendParam[C](hm, appendParam[B](hm, appendParam[A](hm, nil))))}
	p32 := hm.ptr32
	return hm.Func(name, typ, func(hc *HostContext, args []uint64) ([]uint64, error) {
		i := 0
		a, err := decodeParam[A](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		b, err := decodeParam[B](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		c, err := decodeParam[C](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		d, err := decodeParam[D](hc, p32, args, &i)
		if err != nil {
			return nil, err
		}
		return nil, fn(hc, a, b, c, d)
	})
}
