// Package wasm models 64-bit WebAssembly modules extended with the Cage
// memory-safety instructions (paper §4.2, Fig. 7).
//
// The package covers the subset of WebAssembly 1.0 + memory64 that the
// Cage toolchain needs — integer/float numerics, structured control
// flow, linear memory with 64-bit addressing, tables and indirect calls,
// bulk memory fill/copy — plus the five Cage instructions:
//
//	segment.new o          : i64 i64 -> i64
//	segment.set_tag o      : i64 i64 i64 -> ε
//	segment.free o         : i64 i64 -> ε
//	i64.pointer_sign       : i64 -> i64
//	i64.pointer_auth       : i64 -> i64
//
// Modules can be built programmatically, encoded to and decoded from the
// binary format, and validated (including the Fig. 10 typing rules).
package wasm

import "fmt"

// ValType is a WebAssembly value type.
type ValType byte

// Value types (binary encodings per the spec).
const (
	I32 ValType = 0x7F
	I64 ValType = 0x7E
	F32 ValType = 0x7D
	F64 ValType = 0x7C
)

// String returns the textual name of the value type.
func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	default:
		return fmt.Sprintf("valtype(0x%x)", byte(t))
	}
}

// Valid reports whether t is a known value type.
func (t ValType) Valid() bool {
	switch t {
	case I32, I64, F32, F64:
		return true
	}
	return false
}

// FuncType is a function signature.
type FuncType struct {
	Params  []ValType
	Results []ValType
}

// Equal reports signature equality (call_indirect's type check).
func (ft FuncType) Equal(other FuncType) bool {
	if len(ft.Params) != len(other.Params) || len(ft.Results) != len(other.Results) {
		return false
	}
	for i, p := range ft.Params {
		if other.Params[i] != p {
			return false
		}
	}
	for i, r := range ft.Results {
		if other.Results[i] != r {
			return false
		}
	}
	return true
}

// String renders the signature as "(i64, i64) -> (i64)".
func (ft FuncType) String() string {
	s := "("
	for i, p := range ft.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	s += ") -> ("
	for i, r := range ft.Results {
		if i > 0 {
			s += ", "
		}
		s += r.String()
	}
	return s + ")"
}

// Limits bound a memory or table size. Units are pages for memories and
// entries for tables.
type Limits struct {
	Min    uint64
	Max    uint64
	HasMax bool
}

// PageSize is the WebAssembly linear-memory page size.
const PageSize = 64 * 1024

// MemoryType describes a linear memory. Memory64 selects 64-bit
// addressing (wasm64, the memory64 proposal the paper builds on).
type MemoryType struct {
	Limits   Limits
	Memory64 bool
}

// TableType describes a funcref table. Indices stay 32-bit even under
// memory64 (paper §4.2: "the indices for the WASM function table remain
// 32 bit wide").
type TableType struct {
	Limits Limits
}

// GlobalType describes a global variable.
type GlobalType struct {
	Type    ValType
	Mutable bool
}

// Global is a module-level global with a constant initializer.
type Global struct {
	Type GlobalType
	// Init is the constant initial value, encoded in the bits of a
	// uint64 (float bits for F32/F64).
	Init uint64
}

// Import declares a host function import.
type Import struct {
	Module string
	Name   string
	// TypeIdx indexes Module.Types.
	TypeIdx uint32
}

// ExportKind tags what an export refers to.
type ExportKind byte

// Export kinds (binary encodings per the spec).
const (
	ExportFunc   ExportKind = 0
	ExportTable  ExportKind = 1
	ExportMemory ExportKind = 2
	ExportGlobal ExportKind = 3
)

// Export makes a definition visible to the embedder.
type Export struct {
	Name string
	Kind ExportKind
	Idx  uint32
}

// Function is a defined (non-imported) function.
type Function struct {
	// TypeIdx indexes Module.Types.
	TypeIdx uint32
	// Locals lists the declared locals (excluding parameters).
	Locals []ValType
	// Body is the flat instruction sequence, terminated by OpEnd.
	Body []Instr
	// Name is an optional debug name.
	Name string
}

// ElemSegment is an active element segment for table 0.
type ElemSegment struct {
	// Offset is the constant table offset.
	Offset uint32
	// Funcs are function indices placed at Offset.
	Funcs []uint32
}

// DataSegment is an active data segment for memory 0.
type DataSegment struct {
	// Offset is the constant memory offset.
	Offset uint64
	// Bytes is the initial content.
	Bytes []byte
}

// Module is a parsed or programmatically-built module.
type Module struct {
	Types   []FuncType
	Imports []Import
	Funcs   []Function
	Tables  []TableType
	Mems    []MemoryType
	Globals []Global
	Exports []Export
	Elems   []ElemSegment
	Datas   []DataSegment
	// Start, if non-nil, is the start function index.
	Start *uint32
}

// FuncTypeAt resolves the signature of function index fidx (spanning
// imports and defined functions).
func (m *Module) FuncTypeAt(fidx uint32) (FuncType, error) {
	if int(fidx) < len(m.Imports) {
		ti := m.Imports[fidx].TypeIdx
		if int(ti) >= len(m.Types) {
			return FuncType{}, fmt.Errorf("wasm: import %d has invalid type index %d", fidx, ti)
		}
		return m.Types[ti], nil
	}
	di := int(fidx) - len(m.Imports)
	if di >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", fidx)
	}
	ti := m.Funcs[di].TypeIdx
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: function %d has invalid type index %d", fidx, ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc finds the function index exported under name.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExportFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// AddType interns a function type, returning its index.
func (m *Module) AddType(ft FuncType) uint32 {
	for i, t := range m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, ft)
	return uint32(len(m.Types) - 1)
}
