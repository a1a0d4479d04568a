package ir

import (
	"fmt"

	"cage/internal/wasm"
)

// A fused form is one superinstruction: its opcode, its mnemonic and
// the lowered sequence it stands for, one slot per constituent. A slot
// says what may fill it — an exact op, or a class: any ALU op,
// i64.add|i64.sub, any load, any store — and in which field of the
// fused instruction's immediates the constituent's operand travels: a
// local index, a constant, an ALU class's wasm opcode, a memory
// access's offset, a branch's stack repair. An operand that does not
// fit its field does not match. Every memory access also packs its
// width, lowered variant and wasm opcode into B's low word
// (PackFusedMem, whose ALU byte a slot may claim), and every branch its
// target (PackFusedBranch); a branch whose repair has no field matches
// only the zero repair pack (keep=0, arity=0) that structured lowering
// gives every loop edge.
//
// The tables below are the one definition of every fused opcode:
// Match encodes through a row, Instr.Constituents decodes through
// it, and IsFusedBranch, IsIndexed, IsStraightLine and the mnemonics
// read it. The executor's cases decode the same fields by hand; the
// round-trip and differential tests hold them to the rows.
type Form struct {
	op    Op
	name  string
	slots []slot
	// indexed rows only. bare is the address with no load (fused.idx1):
	// it matches only where no load follows, so an indexed load whose
	// load does not fit is not fused at all. tail ends in an op after
	// the load, which it takes only where that op does not head a
	// reduction latch (fused.alu+set+inc+br): acc += a[i] stays
	// fused.idx1+load and one latch, where joining the f64.add would
	// leave the latch's six other constituents three dispatches.
	indexed, bare, tail bool
}

// field is where an operand sits: width bits of A, or of B, from bit
// shift up. The zero field holds nothing: its operand must be zero.
type field struct {
	inB          bool
	shift, width uint8
}

func inA(shift, width uint8) field { return field{shift: shift, width: width} }
func inB(shift, width uint8) field { return field{inB: true, shift: shift, width: width} }

var wholeA, wholeB, none = inA(0, 64), inB(0, 64), field{}

// memALU is the ALU byte of a memory pack (PackFusedMem).
var memALU = inB(8, 8)

func (f field) word(in *Instr) *uint64 {
	if f.inB {
		return &in.B
	}
	return &in.A
}

// put ORs v into f, or reports that it does not fit.
func (f field) put(in *Instr, v uint64) bool {
	if f.width < 64 && v>>f.width != 0 {
		return false
	}
	*f.word(in) |= v << f.shift
	return true
}

func (f field) get(in *Instr) uint64 {
	v := *f.word(in) >> f.shift
	if f.width < 64 {
		v &= 1<<f.width - 1
	}
	return v
}

type class uint8

const (
	exact  class = iota // op; operand its A (nothing for a numeric)
	sameAs              // op with the A of slot same: the set of the local an increment read
	anyALU              // a numeric the executor implements; operand its wasm opcode
	addSub              // i64.add or i64.sub; operand its wasm opcode
	load                // operand the offset
	store               // operand the offset
	branch              // op; operand the repair (A)
)

type slot struct {
	class class
	same  uint8
	op    Op
	f     field
}

func get(f field) slot         { return slot{class: exact, op: OpLocalGet, f: f} }
func set(f field) slot         { return slot{class: exact, op: OpLocalSet, f: f} }
func cnst(f field) slot        { return slot{class: exact, op: OpConst, f: f} }
func is(w wasm.Opcode) slot    { return slot{class: exact, op: OpNumericBase + Op(w)} }
func alu(f field) slot         { return slot{class: anyALU, f: f} }
func ld(f field) slot          { return slot{class: load, f: f} }
func st(f field) slot          { return slot{class: store, f: f} }
func br(op Op, rep field) slot { return slot{class: branch, op: op, f: rep} }

// setOf is the set of slot k's local.
func setOf(k uint8) slot { return slot{class: sameAs, op: OpLocalSet, same: k} }

// addOrSub is i64.add|i64.sub with its opcode in f.
func addOrSub(f field) slot { return slot{class: addSub, f: f} }

func row(op Op, name string, slots ...slot) Form { return Form{op: op, name: name, slots: slots} }

// encode fills s with in, the constituent at its position of seq, into
// out, or reports that in does not match. Where s names an op, in has
// it (match tests that first).
func (s slot) encode(out, in *Instr, seq []Instr) bool {
	v := in.A
	switch s.class {
	case sameAs:
		return in.A == seq[s.same].A
	case anyALU, addSub:
		if !in.Op.IsNumeric() {
			return false
		}
		w := in.Op.Wasm()
		if _, _, ok := numericEffect(w); !ok || s.class == addSub && w != wasm.OpI64Add && w != wasm.OpI64Sub {
			return false
		}
		v = uint64(w)
	case load, store:
		if s.class == load && !in.Op.IsLoad() || s.class == store && !in.Op.IsStore() {
			return false
		}
		size, memOp := MemSize(in.B), MemOp(in.B)
		if size > 0xFF || memOp > 0xFF {
			return false
		}
		out.B |= PackFusedMem(size, in.Op, 0, memOp)
	case branch:
		if in.B > 0xFFFFFFFF {
			return false
		}
		out.B |= in.B
	}
	return s.f.put(out, v)
}

// decode is encode's inverse: the constituent s holds in in, given the
// constituents before it.
func (s slot) decode(in *Instr, seq []Instr) Instr {
	v := s.f.get(in)
	switch s.class {
	case sameAs:
		return Instr{Op: s.op, A: seq[s.same].A}
	case anyALU, addSub:
		return Instr{Op: OpNumericBase + Op(v)}
	case load, store:
		return Instr{Op: FusedMemVariant(in.B), A: v, B: PackMem(FusedMemSize(in.B), FusedMemOp(in.B))}
	case branch:
		return Instr{Op: s.op, A: v, B: uint64(FusedBranchTarget(in.B))}
	}
	return Instr{Op: s.op, A: v}
}

// shapes are the forms the fuse pass tries at every pc, in precedence
// order: the octet loop head, the seven-constituent latch, get3, the
// quintuples, quads, triples and pairs. An idiom — a shape with its ALU
// constituents named in the opcode, which the executor runs as
// straight-line code — sits immediately before its shape and keeps the
// shape's encoding with the ALU fields unused, so it takes exactly the
// tuples it names and the shape every other.
var shapes = [...]Form{
	// get x; get y; const k; i64.extend_i32_s; i64.add|sub; i64.lt_s;
	// i32.eqz; br_if — the head of a loop bounded by n ± k.
	row(OpFusedGetGetKI64LtSEqzBr, "fused.get+get+k+i64.lt_s+eqz+br_if",
		get(inA(48, 16)), get(inA(32, 16)), cnst(inA(0, 32)), is(wasm.OpI64ExtendI32S),
		addOrSub(inB(32, 8)), is(wasm.OpI64LtS), is(wasm.OpI32Eqz), br(OpBrIf, none)),
	// alu0; set x; get y; const c; alu1; set y; br — retire a reduction
	// into x, bump the induction variable y, take the back edge.
	row(OpFusedF64AddSetI64IncBr, "fused.f64.add+set+inc.i64.add+br",
		is(wasm.OpF64Add), set(inA(32, 16)), get(inA(16, 16)), cnst(inA(8, 8)), is(wasm.OpI64Add), setOf(2), br(OpBr, none)),
	row(OpFusedF64SubSetI64IncBr, "fused.f64.sub+set+inc.i64.add+br",
		is(wasm.OpF64Sub), set(inA(32, 16)), get(inA(16, 16)), cnst(inA(8, 8)), is(wasm.OpI64Add), setOf(2), br(OpBr, none)),
	row(OpFusedALUSetIncBr, "fused.alu+set+inc+br",
		alu(inA(48, 8)), set(inA(32, 16)), get(inA(16, 16)), cnst(inA(8, 8)), alu(inA(0, 8)), setOf(2), br(OpBr, none)),
	// get w; get x; get y; alu1; get z; alu2 — the multiply-accumulate
	// operand chain of an inner loop.
	row(OpFusedGet3I64MulGetAdd, "fused.get3+i64.mul+get+i64.add",
		get(inA(48, 16)), get(inA(32, 16)), get(inA(16, 16)), is(wasm.OpI64Mul), get(inA(0, 16)), is(wasm.OpI64Add)),
	row(OpFusedGet3ALUGetALU, "fused.get3+alu+get+alu",
		get(inA(48, 16)), get(inA(32, 16)), get(inA(16, 16)), alu(inB(0, 8)), get(inA(0, 16)), alu(inB(8, 8))),
	// The compare-and-exit head and the increment-and-back-edge latch
	// of a counted loop.
	row(OpFusedGetGetI64LtSEqzBr, "fused.get+get+i64.lt_s+eqz+br_if",
		get(inA(32, 32)), get(inA(0, 32)), is(wasm.OpI64LtS), is(wasm.OpI32Eqz), br(OpBrIf, none)),
	row(OpFusedGetGetCmpEqzBr, "fused.get+get+cmp+eqz+br_if",
		get(inA(32, 32)), get(inA(0, 32)), alu(inB(32, 8)), is(wasm.OpI32Eqz), br(OpBrIf, none)),
	row(OpFusedI64IncBr, "fused.inc.i64.add+br",
		get(inB(32, 32)), cnst(inA(8, 56)), is(wasm.OpI64Add), setOf(0), br(OpBr, none)),
	row(OpFusedIncBr, "fused.inc+br",
		get(inB(32, 32)), cnst(inA(8, 56)), alu(inA(0, 8)), setOf(0), br(OpBr, none)),
	// const c; alu1; alu2; load; alu3 — scaled-index address arithmetic
	// feeding a load whose value joins an ALU chain.
	row(OpFusedConstI64MulAddLoadF64Mul, "fused.const+i64.mul+i64.add+load+f64.mul",
		cnst(inA(32, 32)), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(inA(0, 32)), is(wasm.OpF64Mul)),
	row(OpFusedConstI64MulAddLoadF64Add, "fused.const+i64.mul+i64.add+load+f64.add",
		cnst(inA(32, 32)), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(inA(0, 32)), is(wasm.OpF64Add)),
	row(OpFusedConstI64MulAddLoadF64Sub, "fused.const+i64.mul+i64.add+load+f64.sub",
		cnst(inA(32, 32)), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(inA(0, 32)), is(wasm.OpF64Sub)),
	row(OpFusedConstALUALULoadALU, "fused.const+alu+alu+load+alu",
		cnst(inA(32, 32)), alu(inB(32, 8)), alu(inB(40, 8)), ld(inA(0, 32)), alu(inB(8, 8))),
	// get w; get x; get y; get z — operand marshalling in front of a
	// multiply-accumulate chain.
	row(OpFusedGet4, "fused.get+get+get+get",
		get(inA(48, 16)), get(inA(32, 16)), get(inA(16, 16)), get(inA(0, 16))),
	// get x; alu1; get y; alu2 — the chain address arithmetic leaves
	// once its const+alu prefixes fuse.
	row(OpFusedGetI64MulGetAdd, "fused.get+i64.mul+get+i64.add",
		get(inA(32, 32)), is(wasm.OpI64Mul), get(inA(0, 32)), is(wasm.OpI64Add)),
	row(OpFusedGetALUGetALU, "fused.get+alu+get+alu",
		get(inA(32, 32)), alu(inB(0, 8)), get(inA(0, 32)), alu(inB(8, 8))),
	row(OpFusedGetGetALU, "fused.get+get+alu", get(inA(32, 32)), get(inA(0, 32)), alu(inB(0, 8))),
	row(OpFusedGetConstALU, "fused.get+const+alu", get(inB(32, 32)), cnst(wholeA), alu(inB(0, 8))),
	row(OpFusedCmpEqzBrIf, "fused.cmp+eqz+br_if", alu(inB(32, 8)), is(wasm.OpI32Eqz), br(OpBrIf, wholeA)),
	row(OpFusedConstI64MulAdd, "fused.const+i64.mul+i64.add", cnst(wholeA), is(wasm.OpI64Mul), is(wasm.OpI64Add)),
	row(OpFusedConstExtendI64Add, "fused.const+i64.extend_i32_s+i64.add",
		cnst(wholeA), is(wasm.OpI64ExtendI32S), is(wasm.OpI64Add)),
	row(OpFusedConstExtendI64Sub, "fused.const+i64.extend_i32_s+i64.sub",
		cnst(wholeA), is(wasm.OpI64ExtendI32S), is(wasm.OpI64Sub)),
	row(OpFusedConstALUALU, "fused.const+alu+alu", cnst(wholeA), alu(inB(0, 8)), alu(inB(8, 8))),
	row(OpFusedGetGet, "fused.get+get", get(wholeA), get(wholeB)),
	row(OpFusedGetConst, "fused.get+const", get(wholeA), cnst(wholeB)),
	row(OpFusedConstALU, "fused.const+alu", cnst(wholeA), alu(inB(0, 8))),
	row(OpFusedGetALU, "fused.get+alu", get(wholeA), alu(inB(0, 8))),
	row(OpFusedSetGet, "fused.set+get", set(wholeA), get(wholeB)),
	row(OpFusedSetBr, "fused.set+br", set(inB(32, 32)), br(OpBr, wholeA)),
	row(OpFusedLoadALU, "fused.load+alu", ld(wholeA), alu(inB(8, 8))),
	row(OpFusedALUSet, "fused.alu+set", alu(inB(0, 8)), set(wholeA)),
	row(OpFusedCmpBrIf, "fused.cmp+br_if", alu(inB(32, 8)), br(OpBrIf, wholeA)),
	row(OpFusedCmpBrIfZ, "fused.cmp+br_ifz", alu(inB(32, 8)), br(OpBrIfZ, wholeA)),
	row(OpFusedALULoad, "fused.alu+load", alu(inB(8, 8)), ld(wholeA)),
	row(OpFusedALUStore, "fused.alu+store", alu(inB(8, 8)), st(wholeA)),
}

// indexed are the indexed loads, in precedence order: an address built
// from locals and one scale constant — b + (i ± k)·c (idx1±k, k an i32
// constant extended to i64), b + i·c (idx1), b + (i·n + j)·c (idx2),
// b + i·n·c (idx3) — then the load, then f64.mul or f64.add where one
// follows and the form has an opcode with it; and fused.idx1, the idx1
// address with no load behind it, the store side of B[i] = …. Locals go
// in A by position, the scale and offset above the memory pack in B
// (IdxScale, IdxOffset), idx1±k's k in A's low word and its add or sub
// in the pack's ALU byte (IdxDelta). The fuse pass finds them before
// any shape, and no shape reaches past one.
var indexed = [...]Form{
	row(OpFusedIdx1KLoadF64Add, "fused.idx1±k+load+f64.add", idx1K(is(wasm.OpF64Add))...),
	row(OpFusedIdx1KLoad, "fused.idx1±k+load", idx1K()...),
	row(OpFusedIdx1LoadF64Mul, "fused.idx1+load+f64.mul", idx1(ld(idxOffset), is(wasm.OpF64Mul))...),
	row(OpFusedIdx1LoadF64Add, "fused.idx1+load+f64.add", idx1(ld(idxOffset), is(wasm.OpF64Add))...),
	row(OpFusedIdx1Load, "fused.idx1+load", idx1(ld(idxOffset))...),
	row(OpFusedIdx1, "fused.idx1", idx1()...),
	row(OpFusedIdx2LoadF64Mul, "fused.idx2+load+f64.mul", idx2(is(wasm.OpF64Mul))...),
	row(OpFusedIdx2Load, "fused.idx2+load", idx2()...),
	row(OpFusedIdx3LoadF64Mul, "fused.idx3+load+f64.mul",
		get(inA(48, 16)), get(inA(32, 16)), get(inA(16, 16)), is(wasm.OpI64Mul),
		cnst(idxScale), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(idxOffset), is(wasm.OpF64Mul)),
}

var idxScale, idxOffset = inB(48, 16), inB(32, 16)

// idx1 is get b; get i; const c; i64.mul; i64.add, then rest.
func idx1(rest ...slot) []slot {
	return append([]slot{get(inA(48, 16)), get(inA(32, 16)),
		cnst(idxScale), is(wasm.OpI64Mul), is(wasm.OpI64Add)}, rest...)
}

// idx1K is get b; get i; const k; i64.extend_i32_s; i64.add|sub;
// const c; i64.mul; i64.add; load, then rest.
func idx1K(rest ...slot) []slot {
	return append([]slot{get(inA(48, 16)), get(inA(32, 16)), cnst(inA(0, 32)), is(wasm.OpI64ExtendI32S),
		addOrSub(inB(8, 8)), cnst(idxScale), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(idxOffset)}, rest...)
}

// idx2 is get b; get i; get n; i64.mul; get j; i64.add; const c;
// i64.mul; i64.add; load, then rest.
func idx2(rest ...slot) []slot {
	return append([]slot{get(inA(48, 16)), get(inA(32, 16)), get(inA(16, 16)), is(wasm.OpI64Mul),
		get(inA(0, 16)), is(wasm.OpI64Add), cnst(idxScale), is(wasm.OpI64Mul), is(wasm.OpI64Add), ld(idxOffset)}, rest...)
}

var (
	formOf              [endFusedOps - OpFusedBase]*Form
	shapesAt, indexedAt formIndex
)

// A formIndex holds rows in precedence order by the kinds of their
// first three constituents (a pair under every third kind), so a pc
// tries only the rows that can start there: the pass runs on every
// upload of a new module.
type formIndex struct {
	heads [numKinds]bool // some row starts with the kind
	rows  [numKinds][numKinds][numKinds][]*Form
}

func (x *formIndex) add(f *Form) {
	k0, k1 := f.slots[0].kind(), f.slots[1].kind()
	x.heads[k0] = true
	for k2 := range x.rows[k0][k1] {
		if len(f.slots) == 2 || int(f.slots[2].kind()) == k2 {
			x.rows[k0][k1][k2] = append(x.rows[k0][k1][k2], f)
		}
	}
}

// at returns the rows of x that can start at code[i] and end before end.
func (x *formIndex) at(code []Instr, i, end int) []*Form {
	k0 := kindOf(code[i].Op)
	if !x.heads[k0] || i+1 >= end {
		return nil // every row has two constituents or more
	}
	byNext := &x.rows[k0][kindOf(code[i+1].Op)]
	if i+2 >= end {
		return byNext[kindOther]
	}
	return byNext[kindOf(code[i+2].Op)]
}

// Kinds group the ops a slot can accept.
const (
	kindOther = iota
	kindGet
	kindSet
	kindConst
	kindALU
	kindLoad
	kindStore
	kindBr
	kindBrIf
	kindBrIfZ
	numKinds
)

// kinds holds every op's kind, kindOther where unset.
var kinds = func() (k [OpNumericBase + 0x100]uint8) {
	for op := OpLoadG32; op.IsLoad(); op++ {
		k[op] = kindLoad
	}
	for op := OpStoreG32; op.IsStore(); op++ {
		k[op] = kindStore
	}
	for op := OpNumericBase; op.IsNumeric(); op++ {
		k[op] = kindALU
	}
	k[OpLocalGet], k[OpLocalSet], k[OpConst] = kindGet, kindSet, kindConst
	k[OpBr], k[OpBrIf], k[OpBrIfZ] = kindBr, kindBrIf, kindBrIfZ
	return k
}()

func kindOf(op Op) uint8 {
	if int(op) < len(kinds) {
		return kinds[op]
	}
	return kindOther
}

// kind is the kind of every op s accepts.
func (s slot) kind() uint8 {
	switch s.class {
	case anyALU, addSub:
		return kindALU
	case load:
		return kindLoad
	case store:
		return kindStore
	}
	return kindOf(s.op)
}

func init() {
	for i := range shapes {
		f := &shapes[i]
		formOf[f.op-OpFusedBase] = f
		shapesAt.add(f)
	}
	for i := range indexed {
		f := &indexed[i]
		formOf[f.op-OpFusedBase] = f
		indexedAt.add(f)
		f.indexed, f.bare = true, true
		for _, s := range f.slots {
			if s.class == load {
				f.bare = false
			}
		}
		f.tail = !f.bare && f.slots[len(f.slots)-1].class != load
	}
}

// Shapes returns, in precedence order, the shape forms that can match
// at code[i] without reaching end.
func Shapes(code []Instr, i, end int) []*Form { return shapesAt.at(code, i, end) }

// IndexedForms returns, in precedence order, the indexed forms that can
// match at code[i].
func IndexedForms(code []Instr, i int) []*Form { return indexedAt.at(code, i, len(code)) }

// Match returns the fused instruction the first of forms that matches
// at code[i] encodes, and the number of constituents it replaces, or 0
// where none does. A form does not match where a constituent fails its
// slot or an operand its field, the sequence reaches end, a constituent
// after the head is a branch target (in targets, indexed by pc), or a
// rule of the row forbids it. A fused branch still carries its old
// target.
func Match(forms []*Form, code []Instr, i, end int, targets []bool) (Instr, int) {
	var out Instr
	for _, f := range forms {
		if n := f.match(&out, code, i, end, targets); n > 0 {
			return out, n
		}
	}
	return Instr{}, 0
}

// match encodes code[i:] as f into out and returns its length, or 0.
func (f *Form) match(out *Instr, code []Instr, i, end int, targets []bool) int {
	n := len(f.slots)
	if i+n > end {
		return 0
	}
	seq := code[i : i+n]
	for k := range seq {
		if op := f.slots[k].op; op != 0 && seq[k].Op != op || k > 0 && targets[i+k] {
			return 0 // the cheap test first: most rows fail on an op
		}
	}
	*out = Instr{Op: f.op}
	for k := range seq {
		if !f.slots[k].encode(out, &seq[k], seq) {
			return 0
		}
	}
	after := i + n
	if f.bare && after < len(code) && !targets[after] && code[after].Op.IsLoad() {
		return 0
	}
	if f.tail {
		var latch Instr
		if OpFusedALUSetIncBr.form().match(&latch, code, after-1, len(code), targets) > 0 {
			return 0
		}
	}
	return n
}

func (op Op) form() *Form {
	if !op.IsFused() {
		return nil
	}
	return formOf[op-OpFusedBase]
}

// IsIndexed reports whether op is an indexed load or fused.idx1, the
// address of one without the load.
func (op Op) IsIndexed() bool {
	f := op.form()
	return f != nil && f.indexed
}

// IsFusedBranch reports whether op is a fused superinstruction that ends
// in a branch, whose absolute target is packed in B (PackFusedBranch).
func (op Op) IsFusedBranch() bool {
	f := op.form()
	return f != nil && f.slots[len(f.slots)-1].class == branch
}

// IsStraightLine reports whether op is a fused form with ALU
// constituents none of which is an any-ALU slot: the executor runs it
// as straight-line code, deciding no ALU op at dispatch (an
// i64.add|i64.sub slot is one immediate bit, not a dispatch). These are
// the idioms, the indexed forms and the i < n ± k head.
func (op Op) IsStraightLine() bool {
	f := op.form()
	if f == nil {
		return false
	}
	alus := 0
	for _, s := range f.slots {
		switch {
		case s.class == anyALU:
			return false
		case s.class == addSub || s.class == exact && s.op.IsNumeric():
			alus++
		}
	}
	return alus > 0
}

// describe renders in after its mnemonic, each slot's operand in slot
// order where one prints: a memory access its offset, width and wasm
// opcode (and the ALU of an any-ALU slot that claims the pack's ALU
// byte), an i64.add|i64.sub the ±k it applies to the constant two
// slots before it, a branch its target and, where the repair has a
// field, keep and arity.
func (f *Form) describe(in *Instr) string {
	s := in.Op.String()
	for k, sl := range f.slots {
		switch sl.class {
		case addSub:
			s += fmt.Sprintf(" k=%+d", int64(IdxDelta(f.slots[k-2].f.get(in), wasm.Opcode(sl.f.get(in)))))
		case load, store:
			s += fmt.Sprintf(" offset=%d size=%d (%s", sl.f.get(in), FusedMemSize(in.B), FusedMemOp(in.B))
			for _, o := range f.slots {
				if o.class == anyALU && o.f == memALU {
					s += fmt.Sprintf("; %s", FusedMemALU(in.B))
				}
			}
			s += ")"
		case branch:
			s += fmt.Sprintf(" ->%d", FusedBranchTarget(in.B))
			if sl.f != none {
				rep := sl.f.get(in)
				s += fmt.Sprintf(" keep=%d arity=%d", BranchKeep(rep), BranchArity(rep))
			}
		}
	}
	return s
}

// Constituents expands a fused superinstruction into the exact lowered
// instructions it executes, in order — the expansion cage-objdump
// prints inline and the events of its region are priced from. Branch
// constituents carry the fused instruction's (already remapped) target.
// For non-fused instructions it returns nil.
func (in Instr) Constituents() []Instr {
	f := in.Op.form()
	if f == nil {
		return nil
	}
	seq := make([]Instr, len(f.slots))
	for k, s := range f.slots {
		seq[k] = s.decode(&in, seq)
	}
	return seq
}
