package ir

import (
	"fmt"
	"math/bits"

	"cage/internal/arch"
	"cage/internal/wasm"
)

// Between two control transfers the timing-model events an instruction
// stream charges depend only on its opcodes (Swivel's "linear blocks"
// rest on the same fact), so BuildCharges works them out at lower time.
// The executor only counts how often it enters each region and prices
// the counts when something is about to read the counter. Events that
// depend on operands (tag-store granules, bulk memory, host fuel, BTB
// flushes) are not in the table.

// Charges is a program's event table: for every pc of the lowered
// program, the events of the region from it through the next transfer,
// as a sparse list of (event, count). Instr.Charge indexes it.
type Charges struct {
	off  []uint32 // region r's list is list[off[r]:off[r+1]]
	list []EventCount
}

// EventCount is one event of a region and how many times the region
// charges it.
type EventCount struct {
	Ev uint8 // an arch.Event
	N  uint16
}

const _ = uint8(arch.NumEvents - 1) // every event fits EventCount.Ev
const _ = uint(64 - arch.NumEvents) // and a region's events fit a uint64

// MaxChargeCount is the most occurrences of one event a region holds.
const MaxChargeCount = 1<<16 - 1

// Len returns the number of regions, one per pc of the lowered program.
func (c *Charges) Len() int { return len(c.off) - 1 }

// Events returns region r's events.
func (c *Charges) Events(r uint32) []EventCount { return c.list[c.off[r]:c.off[r+1]] }

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
	c := Charges{off: make([]uint32, n+1)}
	if err := c.walk(p, false); err != nil {
		return err
	}
	for r := range n {
		c.off[r+1] += c.off[r]
	}
	c.list = make([]EventCount, c.off[n])
	c.walk(p, true)
	p.Charges = c
	return nil
}

// walk goes over p's regions, last pc to first in each function, and
// sets every instruction's Charge. The first walk, before c.list is
// allocated at its exact size, records the number of distinct events
// of region r in c.off[r+1]; the second (fill) writes them, with their
// counts, at c.list[c.off[r]:], in event order.
func (c *Charges) walk(p *Program, fill bool) error {
	var n [arch.NumEvents]uint32 // the region's count of each event
	var set uint64               // its events, bit e for event e
	base := 0
	for fi := range p.Funcs {
		code := p.Funcs[fi].Code
		for pc := len(code) - 1; pc >= 0; pc-- {
			in := &code[pc]
			if pc == len(code)-1 || in.Op.Transfers() {
				for ; set != 0; set &= set - 1 {
					n[bits.TrailingZeros64(set)] = 0
				}
			}
			parts := code[pc : pc+1]
			if in.Op.IsFused() {
				parts = in.Constituents()
			}
			for _, part := range parts {
				for _, ev := range opEvents[part.Op] {
					set |= 1 << ev
					n[ev]++
					if n[ev] > MaxChargeCount {
						return fmt.Errorf("ir: function %d: the region at pc %d charges an event more than %d times",
							fi, pc, MaxChargeCount)
					}
				}
			}
			r := base + pc
			in.Charge = uint32(r)
			if !fill {
				c.off[r+1] = uint32(bits.OnesCount64(set))
				continue
			}
			i := c.off[r]
			for s := set; s != 0; s &= s - 1 {
				ev := bits.TrailingZeros64(s)
				c.list[i] = EventCount{Ev: uint8(ev), N: uint16(n[ev])}
				i++
			}
		}
		base += len(code)
	}
	return nil
}

// Unrun returns the events of in's region, counted at the region's
// entry, that a trap in in's part k (Parts) keeps from running: all
// but those of parts 0 through k.
func (p *Program) Unrun(in *Instr, k int) arch.Counter {
	var left arch.Counter
	for _, e := range p.Charges.Events(in.Charge) {
		left.Add(arch.Event(e.Ev), uint64(e.N))
	}
	for _, c := range in.Parts()[:k+1] {
		for _, ev := range opEvents[c.Op] {
			left.Sub(ev, 1)
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
