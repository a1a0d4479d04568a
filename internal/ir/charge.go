package ir

import (
	"fmt"

	"cage/internal/arch"
	"cage/internal/wasm"
)

// Between two control transfers the timing-model events an instruction
// stream charges depend only on its opcodes (Swivel's "linear blocks"
// rest on the same fact), so BuildCharges works them out at lower time
// and the executor charges a straight-line region at its entry. Events
// that depend on operands (tag-store granules, bulk memory, host fuel,
// BTB flushes) are not in the table.

// Charge is the events of one region: every arch.Event's count in a
// 16-bit lane, event e in word e/4 at bit 16·(e%4). Being dense, it is
// added with ChargeWords additions whatever the region holds; a loop
// over a sparse (event, n) list, whose trip count changes from region
// to region, ran gemm 25 % slower. A count is at most MaxChargeCount,
// so an accumulator whose lanes are all below ChargeFull takes one
// more Charge without a carry.
type Charge [ChargeWords]uint64

// ChargeWords is the length of a Charge.
const ChargeWords = (arch.NumEvents + 3) / 4

// MaxChargeCount is the most occurrences of one event a region holds.
const MaxChargeCount = 1<<15 - 1

// ChargeFull has the top bit of every lane: an accumulator with one of
// them set must be drained (Drain) before it takes another Charge.
const ChargeFull = 0x8000_8000_8000_8000

// Drain adds every count of c to ctr and zeroes c.
func (c *Charge) Drain(ctr *arch.Counter) {
	for w, x := range c {
		for ev := arch.Event(4 * w); x != 0; ev++ {
			if n := x & 0xFFFF; n != 0 {
				ctr.Add(ev, n)
			}
			x >>= 16
		}
		c[w] = 0
	}
}

// Transfers reports whether op ends a straight-line region: any branch,
// taken or not, goto, br_table, call, call_indirect, return or
// unreachable — where the executor may leave the region, or its meter
// or a host may read the counter.
func (op Op) Transfers() bool {
	if op < numNamedOps {
		return op >= OpUnreachable && op <= OpCallIndirect // the control block
	}
	return op.IsFused() && op.IsFusedBranch()
}

// The named transfers are one block of ten: an opcode added inside it
// is a transfer.
const _, _ = uint(OpCallIndirect - OpUnreachable - 9), uint(9 - (OpCallIndirect - OpUnreachable))

// Events returns the per-opcode table's entry for op: the events, one
// of each, that an unfused instruction of opcode op charges whatever
// its operands. A fused opcode has none of its own; its constituents'
// count.
func (op Op) Events() []arch.Event {
	if int(op) < len(opEvents) {
		return opEvents[op]
	}
	return nil
}

// opEvents is the per-opcode table. A load or store charges its access
// and the checks its address-translation variant makes (paper Figs.
// 12–13): a bounds check for B64, a tag check for the Tag variants, the
// index mask and tag check for MTE; the NC variants drop the bounds
// check or mask, and guard pages cost nothing per access. The bulk and
// segment opcodes charge only by operand. A numeric opcode's one event
// is numericEvent's.
var opEvents = func() [OpNumericBase + 0x100][]arch.Event {
	t := [OpNumericBase + 0x100][]arch.Event{
		OpBr:            {arch.EvBranch},
		OpBrIf:          {arch.EvBranch},
		OpBrIfZ:         {arch.EvBranch},
		OpBrTable:       {arch.EvBrTable},
		OpReturn:        {arch.EvReturn},
		OpCall:          {arch.EvCall},
		OpCallIndirect:  {arch.EvCallIndirect},
		OpSelect:        {arch.EvSelect},
		OpLocalGet:      {arch.EvLocal},
		OpLocalSet:      {arch.EvLocal},
		OpLocalTee:      {arch.EvLocal},
		OpGlobalGet:     {arch.EvGlobal},
		OpGlobalSet:     {arch.EvGlobal},
		OpConst:         {arch.EvConst},
		OpMemorySize:    {arch.EvALU},
		OpMemoryGrow:    {arch.EvMemGrow},
		OpPtrSign:       {arch.EvPACSign},
		OpPtrSignNop:    {arch.EvPACSign},
		OpPtrAuth:       {arch.EvPACAuth},
		OpPtrAuthNop:    {arch.EvPACAuth},
		OpLoadG32:       {arch.EvLoad},
		OpLoadG32NC:     {arch.EvLoad},
		OpLoadG32G:      {arch.EvLoad},
		OpLoadB64:       {arch.EvLoad, arch.EvBoundsCheck},
		OpLoadB64NC:     {arch.EvLoad},
		OpLoadB64Tag:    {arch.EvLoad, arch.EvBoundsCheck, arch.EvTagCheckLoad},
		OpLoadB64NCTag:  {arch.EvLoad, arch.EvTagCheckLoad},
		OpLoadMTE:       {arch.EvLoad, arch.EvMask, arch.EvTagCheckLoad},
		OpLoadMTENC:     {arch.EvLoad, arch.EvTagCheckLoad},
		OpStoreG32:      {arch.EvStore},
		OpStoreG32NC:    {arch.EvStore},
		OpStoreG32G:     {arch.EvStore},
		OpStoreB64:      {arch.EvStore, arch.EvBoundsCheck},
		OpStoreB64NC:    {arch.EvStore},
		OpStoreB64Tag:   {arch.EvStore, arch.EvBoundsCheck, arch.EvTagCheckStore},
		OpStoreB64NCTag: {arch.EvStore, arch.EvTagCheckStore},
		OpStoreMTE:      {arch.EvStore, arch.EvMask, arch.EvTagCheckStore},
		OpStoreMTENC:    {arch.EvStore, arch.EvTagCheckStore},
		OpFence:         {arch.EvFence},
	}
	for w := range 0x100 {
		if ev, ok := numericEvent(wasm.Opcode(w)); ok {
			t[OpNumericBase+Op(w)] = []arch.Event{ev}
		}
	}
	return t
}()

// numericEvent is the table for the pass-through numeric opcodes the
// executor implements, by the wasm opcode ranges they share an event
// with; the rest trap unimplemented and charge nothing.
func numericEvent(w wasm.Opcode) (arch.Event, bool) {
	switch {
	case w >= wasm.OpI32Eqz && w <= wasm.OpF64Ge: // every compare
		return arch.EvCmp, true
	case w == wasm.OpI32Mul, w == wasm.OpI64Mul:
		return arch.EvMul, true
	case w >= wasm.OpI32DivS && w <= wasm.OpI32RemU, w >= wasm.OpI64DivS && w <= wasm.OpI64RemU:
		return arch.EvDivInt, true
	case w >= wasm.OpI32Clz && w <= wasm.OpI64Rotr: // the rest of integer arithmetic
		return arch.EvALU, true
	case w == wasm.OpF32Mul, w == wasm.OpF64Mul:
		return arch.EvFMul, true
	case w == wasm.OpF32Div, w == wasm.OpF32Sqrt, w == wasm.OpF64Div, w == wasm.OpF64Sqrt:
		return arch.EvFDiv, true
	case w >= wasm.OpF32Abs && w <= wasm.OpF64Copysign: // the rest of float arithmetic
		return arch.EvFAdd, true
	case w >= wasm.OpI32WrapI64 && w <= wasm.OpF64ReinterpretI64: // every conversion
		return arch.EvConv, true
	}
	return 0, false
}

// BuildCharges records, for every pc of p, the events of the region
// from it through the next transfer: the per-opcode table's events
// (Op.Events) of each instruction, a fused one's of each of its
// Constituents. The instruction's Charge field indexes them in
// p.Charges. Lower runs it last and fuse.Fuse keeps its table; code
// edited after either needs it again. It fails only for a region that
// holds an event more than MaxChargeCount times.
func BuildCharges(p *Program) error {
	n := 0
	for fi := range p.Funcs {
		n += len(p.Funcs[fi].Code)
	}
	p.Charges = make([]Charge, n)
	n = 0
	for fi := range p.Funcs {
		code := p.Funcs[fi].Code
		var acc Charge
		for pc := len(code) - 1; pc >= 0; pc-- {
			in := &code[pc]
			if in.Op.Transfers() {
				acc = Charge{}
			}
			if in.Op.IsFused() {
				for _, c := range in.Constituents() {
					acc.add(c.Op)
				}
			} else {
				acc.add(in.Op)
			}
			in.Charge = uint32(n + pc)
			p.Charges[n+pc] = acc
			if (pc == 0 || code[pc-1].Op.Transfers()) && acc.full() { // a region's head counts the most
				return fmt.Errorf("ir: function %d: the region at pc %d charges an event more than %d times",
					fi, pc, MaxChargeCount)
			}
		}
		n += len(code)
	}
	return nil
}

// add counts the events of one unfused instruction of opcode op.
func (c *Charge) add(op Op) {
	for _, ev := range opEvents[op] {
		c[ev/4] += 1 << (16 * (ev % 4))
	}
}

// full reports whether a count of c exceeds MaxChargeCount.
func (c *Charge) full() bool {
	for _, w := range c {
		if w&ChargeFull != 0 {
			return true
		}
	}
	return false
}

// Count returns c's count of ev.
func (c *Charge) Count(ev arch.Event) uint64 { return c[ev/4] >> (16 * (ev % 4)) & 0xFFFF }

// Unrun returns the events of in's region, charged at the region's
// entry, that a trap in in's part k (Parts) keeps from running: all
// but those of parts 0 through k.
func (p *Program) Unrun(in *Instr, k int) Charge {
	left := p.Charges[in.Charge]
	for _, c := range in.Parts()[:k+1] {
		for _, ev := range opEvents[c.Op] {
			left[ev/4] -= 1 << (16 * (ev % 4))
		}
	}
	return left
}

// Parts returns what in executes, in order: its constituents if it is
// fused, else in itself.
func (in Instr) Parts() []Instr {
	if in.Op.IsFused() {
		return in.Constituents()
	}
	return []Instr{in}
}
