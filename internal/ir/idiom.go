package ir

import "cage/internal/wasm"

// An idiom is a generic fused shape with its ALU constituents named in
// the opcode instead of carried as immediates. The shapes answer "which
// ALU op is this" at every dispatch — one indirect jump per ALU
// constituent in the executor's shared fused-ALU block; an idiom
// answers it once, here, when the fuse pass emits the instruction, so
// the executor runs it as straight-line code. The table below is the
// one place that decision lives: Specialize reads it forwards (shape +
// tuple → idiom), Constituents reads it backwards (idiom → shape with
// the tuple filled in), and the executor has one `case` per row.
//
// An idiom's immediates are its shape's with the ALU fields zero, so
// every other field (locals, constant, offset, memory variant, branch
// target) is read with the shape's own accessors.

// Idiom is one row of the table: the idiom opcode, the generic shape it
// specializes, and the shape's ALU constituents in constituent order.
type Idiom struct {
	Op    Op
	Shape Op
	ALUs  []wasm.Opcode
}

// idioms is indexed by Op - firstIdiomOp (TestIdiomTable holds the
// order). Rows are the concrete sequences that dominate the polybench
// kernels (85 % of the ALU constituents executed inside fused ops);
// 32-bit twins are left to the shapes until a workload runs a 32-bit
// module.
var idioms = [...]Idiom{
	{OpFusedConstI64MulAdd, OpFusedConstALUALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add}},
	{OpFusedConstI64MulAddLoadF64Mul, OpFusedConstALUALULoadALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add, wasm.OpF64Mul}},
	{OpFusedConstI64MulAddLoadF64Add, OpFusedConstALUALULoadALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add, wasm.OpF64Add}},
	{OpFusedConstI64MulAddLoadF64Sub, OpFusedConstALUALULoadALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add, wasm.OpF64Sub}},
	{OpFusedGetGetI64LtSEqzBr, OpFusedGetGetCmpEqzBr,
		[]wasm.Opcode{wasm.OpI64LtS}},
	{OpFusedF64AddSetI64IncBr, OpFusedALUSetIncBr,
		[]wasm.Opcode{wasm.OpF64Add, wasm.OpI64Add}},
	{OpFusedF64SubSetI64IncBr, OpFusedALUSetIncBr,
		[]wasm.Opcode{wasm.OpF64Sub, wasm.OpI64Add}},
	{OpFusedGet3I64MulGetAdd, OpFusedGet3ALUGetALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add}},
	{OpFusedConstExtendI64Add, OpFusedConstALUALU,
		[]wasm.Opcode{wasm.OpI64ExtendI32S, wasm.OpI64Add}},
	{OpFusedConstExtendI64Sub, OpFusedConstALUALU,
		[]wasm.Opcode{wasm.OpI64ExtendI32S, wasm.OpI64Sub}},
	{OpFusedI64IncBr, OpFusedIncBr,
		[]wasm.Opcode{wasm.OpI64Add}},
	{OpFusedGetI64MulGetAdd, OpFusedGetALUGetALU,
		[]wasm.Opcode{wasm.OpI64Mul, wasm.OpI64Add}},
}

// The table has a row for every idiom opcode and nothing else.
const _ = uint(len(idioms) - int(endFusedOps-firstIdiomOp))
const _ = uint(int(endFusedOps-firstIdiomOp) - len(idioms))

// Idioms returns the idiom table.
func Idioms() []Idiom { return idioms[:] }

// aluField locates one ALU opcode byte in a shape's immediates.
type aluField struct {
	inA   bool
	shift uint
}

// word is the immediate the field lives in.
func (f aluField) word(in *Instr) *uint64 {
	if f.inA {
		return &in.A
	}
	return &in.B
}

func (f aluField) get(in *Instr) wasm.Opcode { return wasm.Opcode(*f.word(in) >> f.shift & 0xFF) }

// put ORs alu into the field, which an idiom keeps zero.
func (f aluField) put(in *Instr, alu wasm.Opcode) { *f.word(in) |= uint64(alu) << f.shift }

func (f aluField) clear(in *Instr) { *f.word(in) &^= 0xFF << f.shift }

var (
	aluFieldsB0B8     = []aluField{{false, 0}, {false, 8}}
	aluFieldsB32      = []aluField{{false, 32}}
	aluFieldsA0       = []aluField{{true, 0}}
	aluFieldsB32B40B8 = []aluField{{false, 32}, {false, 40}, {false, 8}}
	aluFieldsA48A0    = []aluField{{true, 48}, {true, 0}}
)

// aluFields returns where a shape that has idioms keeps its ALU
// opcodes, in constituent order (the encodings are tabulated at
// OpFusedBase), or nil for every other opcode.
func aluFields(shape Op) []aluField {
	switch shape {
	case OpFusedConstALUALU, OpFusedGetALUGetALU, OpFusedGet3ALUGetALU:
		return aluFieldsB0B8
	case OpFusedGetGetCmpEqzBr:
		return aluFieldsB32
	case OpFusedIncBr:
		return aluFieldsA0
	case OpFusedConstALUALULoadALU:
		return aluFieldsB32B40B8
	case OpFusedALUSetIncBr:
		return aluFieldsA48A0
	}
	return nil
}

// Specialize turns a generic fused instruction whose ALU tuple has an
// idiom into that idiom, in place, and leaves every other instruction
// alone. The fuse pass calls it on everything it emits.
func Specialize(in *Instr) {
	fields := aluFields(in.Op)
	if fields == nil {
		return
	}
next:
	for i := range idioms {
		id := &idioms[i]
		if id.Shape != in.Op {
			continue
		}
		for k, f := range fields {
			if f.get(in) != id.ALUs[k] {
				continue next
			}
		}
		for _, f := range fields {
			f.clear(in)
		}
		in.Op = id.Op
		return
	}
}

// generic is Specialize's inverse: the shape instruction an idiom
// stands for, ALU fields filled in from the table.
func (in Instr) generic() (Instr, bool) {
	if in.Op < firstIdiomOp || in.Op >= endFusedOps {
		return in, false
	}
	id := &idioms[in.Op-firstIdiomOp]
	in.Op = id.Shape
	for k, f := range aluFields(id.Shape) {
		f.put(&in, id.ALUs[k])
	}
	return in, true
}
