package exec

// Restore soundness as a property (the restore leg of ROADMAP, "One
// generative differential harness"): after any sequence
// of writes through any channel, the dirty set covers every page whose
// bytes or tags differ from the base image, a restore leaves memory and
// tags equal to the image — a restore of the birth image equal to a
// fresh instance's — and — the sequence over, the instance retired — a birth on
// its recycled storage is byte for byte and granule for granule the
// birth on never-used storage. elision_test.go attacks the set one
// channel at a time; this file attacks it with seeded random sequences
// over every channel, feature set, dispatch tier and both memory
// backings, and is the fuzz target CI runs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cage/internal/core"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/mte"
	"cage/internal/wasm"
)

// restoreToolbox builds the module the sequences drive: one exported
// function per guest write channel, over a 64-bit or (for the guard32
// strategy, and the guard-region backing where the kernel grants one)
// 32-bit memory.
//
//	st8/st16/st32/st64(addr, val)   scalar stores
//	fill(dst, val, n), cpy(dst, src, n), grow(pages)
//	spin(addr, n)                   n ALU-fed stores in a loop (the fused
//	                                store; a fuel budget traps it mid-way)
//	hostwrite(ptr, val)             a host function writing through its
//	                                HostContext memory view
//	segnew/settag/segfree           the segment instructions (mem64 only)
func restoreToolbox(mem64 bool) *wasm.Module {
	// The index type's add/mul/ge_u and full-width store: spin's ALU
	// result needs no conversion before it is stored.
	it, add, mul, geU, store := wasm.I32, wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32GeU, wasm.OpI32Store
	konst := func(v int64) wasm.Instr { return wasm.I32Const(int32(v)) }
	if mem64 {
		it, add, mul, geU, store = wasm.I64, wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64GeU, wasm.OpI64Store
		konst = wasm.I64Const
	}
	m := &wasm.Module{}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 2, Max: 5, HasMax: true}, Memory64: mem64}}
	m.Datas = []wasm.DataSegment{
		{Offset: 100, Bytes: []byte("restore-soundness")},
		{Offset: 2*dirtyPageSize - 3, Bytes: []byte{1, 2, 3, 4, 5, 6}}, // straddles a page
	}
	host := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: "hostwrite", TypeIdx: host}}
	export := func(name string, ft wasm.FuncType, locals []wasm.ValType, body ...wasm.Instr) {
		m.Funcs = append(m.Funcs, wasm.Function{TypeIdx: m.AddType(ft), Locals: locals, Body: append(body, wasm.End())})
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExportFunc, Idx: uint32(len(m.Imports) + len(m.Funcs) - 1)})
	}
	export("hostwrite", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}}, nil,
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.Call(0))
	for _, st := range []struct {
		name string
		op   wasm.Opcode
	}{{"st8", wasm.OpI64Store8}, {"st16", wasm.OpI64Store16}, {"st32", wasm.OpI64Store32}, {"st64", wasm.OpI64Store}} {
		export(st.name, wasm.FuncType{Params: []wasm.ValType{it, wasm.I64}}, nil,
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.Store(st.op, 0))
	}
	export("fill", wasm.FuncType{Params: []wasm.ValType{it, wasm.I32, it}}, nil,
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.LocalGet(2), wasm.Op(wasm.OpMemoryFill))
	export("cpy", wasm.FuncType{Params: []wasm.ValType{it, it, it}}, nil,
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.LocalGet(2), wasm.Op(wasm.OpMemoryCopy))
	export("grow", wasm.FuncType{Params: []wasm.ValType{it}, Results: []wasm.ValType{it}}, nil,
		wasm.LocalGet(0), wasm.Op(wasm.OpMemoryGrow))
	// spin: for i := 0; i < n; i++ { mem[addr+8i] = addr + i + i } — the
	// value's last add has no get or const left to fuse with, so the fuse
	// pass folds it into the store (TestRestoreToolboxFusesStore).
	export("spin", wasm.FuncType{Params: []wasm.ValType{it, it}}, []wasm.ValType{it},
		wasm.Block(wasm.BlockVoid), wasm.Loop(wasm.BlockVoid),
		wasm.LocalGet(2), wasm.LocalGet(1), wasm.Op(geU), wasm.BrIf(1),
		wasm.LocalGet(0), wasm.LocalGet(2), konst(8), wasm.Op(mul), wasm.Op(add),
		wasm.LocalGet(0), wasm.LocalGet(2), wasm.LocalGet(2), wasm.Op(add), wasm.Op(add), wasm.Store(store, 0),
		wasm.LocalGet(2), konst(1), wasm.Op(add), wasm.LocalSet(2),
		wasm.Br(0), wasm.End(), wasm.End())
	if mem64 {
		i64s := func(n int) []wasm.ValType { return slices.Repeat([]wasm.ValType{wasm.I64}, n) }
		export("segnew", wasm.FuncType{Params: i64s(2), Results: i64s(1)}, nil,
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.SegmentNew(0))
		export("settag", wasm.FuncType{Params: i64s(3)}, nil,
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.LocalGet(2), wasm.SegmentSetTag(0))
		export("segfree", wasm.FuncType{Params: i64s(2)}, nil,
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.SegmentFree(0))
	}
	return m
}

// restoreHost is env.hostwrite: the HostContext memory writers, picked
// by the value's low bits.
func restoreHost() *HostModule {
	return NewHostModule("env").Func("hostwrite",
		wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}},
		func(hc *HostContext, args []uint64) ([]uint64, error) {
			mem, p, v := hc.Memory(), args[0], args[1]
			switch v % 3 {
			case 0:
				return nil, mem.WriteU64(p, v)
			case 1:
				return nil, mem.WriteU32(p, uint32(v))
			default:
				return nil, mem.WriteBytes(p, bytes.Repeat([]byte{byte(v)}, int(v>>8%9000)))
			}
		})
}

var restoreFuzzConfigs = []struct {
	name  string
	mem64 bool
	feats core.Features
}{
	{"plain32", false, core.Features{}},
	{"plain", true, core.Features{}},
	{"sandbox", true, core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
	{"memsafety", true, core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
	{"full", true, core.CageAll()},
}

// restoreRig is one instance under test with its current base image.
type restoreRig struct {
	t    *testing.T
	name string // configuration, for failure messages
	rng  *rand.Rand
	inst *Instance
	snap *Snapshot
	// img and imgTags are copies of the memory and the tag array snap was
	// captured from: what every restore and fork of snap must reproduce,
	// held apart from however the snapshot stores them.
	img     []byte
	imgTags []uint8
	// fresh and freshTags are the memory and tag array of a just-born
	// instance on never-used storage, under sandbox tag freshTag, and
	// birth the image captured from it then: what a restore of birth —
	// the pooled reset of a module without an init — must bring back.
	fresh     []byte
	freshTags []uint8
	freshTag  uint8
	birth     *Snapshot
	// segs are the tagged pointers segment.new handed out (16..8192
	// bytes each); stores through them hit retagged memory.
	segs []uint64
	// view is a retained Memory() slice, written through after later
	// restores for as long as it still aliases the live buffer.
	view   []byte
	expose bool
	log    []string
}

func (r *restoreRig) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s: %s\nops:\n  %s", r.name, fmt.Sprintf(format, args...), strings.Join(r.log, "\n  "))
}

// call invokes a toolbox function; traps are expected outcomes (half
// the addresses are picked to provoke them), anything else is a bug.
func (r *restoreRig) call(fuel uint64, name string, args ...uint64) []uint64 {
	r.t.Helper()
	r.log = append(r.log, fmt.Sprintf("%s%x fuel=%d", name, args, fuel))
	res, err := r.inst.InvokeWith(context.Background(), name, args, CallOptions{Fuel: fuel})
	var trap *Trap
	if err != nil && !errors.As(err, &trap) {
		r.fail("%s%v: %v", name, args, err)
	}
	return res.Values
}

// addr picks a target for a size-byte write: anywhere, straddling a
// page boundary, the last bytes of memory, just out of bounds, or — for
// instances with the bounds check lowered away — in the host reserve.
func (r *restoreRig) addr(size uint64) uint64 {
	memSize := r.inst.memSize
	switch r.rng.Intn(6) {
	case 0:
		return uint64(1+r.rng.Intn(int(memSize/dirtyPageSize)-1))*dirtyPageSize - 1 - uint64(r.rng.Intn(int(size)))
	case 1:
		return memSize - size
	case 2:
		return memSize - size + 1 + uint64(r.rng.Intn(8))
	case 3:
		return memSize + uint64(r.rng.Intn(len(r.inst.mem)-int(memSize)+1))
	default:
		return uint64(r.rng.Int63n(int64(memSize)))
	}
}

// length picks a bulk length: mostly small, sometimes several pages.
func (r *restoreRig) length() uint64 {
	if r.rng.Intn(4) == 0 {
		return uint64(r.rng.Intn(5 * dirtyPageSize))
	}
	return uint64(r.rng.Intn(64))
}

// src picks a copy source: half the time the first data segment, so the
// copy moves non-zero bytes.
func (r *restoreRig) src() uint64 {
	if r.rng.Intn(2) == 0 {
		return 100
	}
	return r.addr(1)
}

// step performs one random operation: a write through one channel, a
// capture, or a restore of the birth image or of the base image.
func (r *restoreRig) step() {
	inst, rng := r.inst, r.rng
	val := rng.Uint64()
	switch op := rng.Intn(32); op {
	case 0, 1, 2, 3:
		size := uint64(1) << op
		addr := r.addr(size)
		if len(r.segs) > 0 && rng.Intn(3) == 0 {
			// Through a segment's tagged pointer: inside it, or past its
			// end into differently tagged memory (a tag mismatch).
			addr = r.segs[rng.Intn(len(r.segs))] + uint64(rng.Intn(8300))
		}
		r.call(0, [...]string{"st8", "st16", "st32", "st64"}[op], addr, val)
	case 4, 5, 6:
		r.call(0, "fill", r.addr(1), val&0xFF, r.length())
	case 7, 8, 9:
		r.call(0, "cpy", r.addr(1), r.src(), r.length())
	case 10, 11:
		// A fuel budget that runs dry mid-loop, or none.
		r.call(uint64(rng.Intn(3))*uint64(20+rng.Intn(400)), "spin", r.addr(8), uint64(rng.Intn(700)))
	case 12:
		r.call(0, "hostwrite", r.addr(8), val)
	case 13:
		r.log = append(r.log, "WriteU64/WriteBytes")
		_ = inst.WriteU64(r.addr(8), val)
		_ = inst.WriteBytes(r.addr(1), bytes.Repeat([]byte{byte(val)}, int(r.length())))
	case 14:
		r.log = append(r.log, "ZeroBytes/CopyBytes")
		_ = inst.ZeroBytes(r.addr(1), r.length())
		_ = inst.CopyBytes(r.addr(1), r.src(), r.length())
	case 15:
		hc := inst.HostContext(nil).Memory()
		r.log = append(r.log, "HostContext writes")
		_ = hc.WriteU64(r.addr(8), val)
		_ = hc.WriteU32(r.addr(4), uint32(val))
		_ = hc.WriteBytes(r.addr(1), bytes.Repeat([]byte{byte(val)}, int(r.length())))
	case 16, 17, 18:
		if !inst.memType.Memory64 {
			return
		}
		ptr, n := r.addr(16)&^15, uint64(1+rng.Intn(512))*16
		if op != 18 {
			if res := r.call(0, "segnew", ptr, n); len(res) == 1 {
				r.segs = append(r.segs, res[0])
			}
		} else if tagged, err := inst.HostSegmentNew(ptr, n); err == nil {
			r.log = append(r.log, fmt.Sprintf("HostSegmentNew %x+%d", ptr, n))
			r.segs = append(r.segs, tagged)
		}
	case 19, 20, 21:
		if len(r.segs) == 0 {
			return
		}
		// set_tag and free over a recorded pointer with a random length:
		// right, short, or a double free / foreign range that traps.
		tagged, n := r.segs[rng.Intn(len(r.segs))], uint64(1+rng.Intn(512))*16
		switch op {
		case 19:
			r.call(0, "settag", r.addr(16)&^15, tagged, n)
		case 20:
			r.call(0, "segfree", tagged, n)
		default:
			r.log = append(r.log, fmt.Sprintf("HostSegmentFree/SetTag %x+%d", tagged, n))
			_ = inst.HostSegmentFree(tagged, n)
			_ = inst.HostSegmentSetTag(r.addr(16)&^15, tagged, n)
		}
	case 22:
		r.call(0, "grow", uint64(rng.Intn(3)))
	case 23:
		// Expose the raw view and write through it. Exposure pins the
		// set for good, which blinds the superset check, so only some
		// sequences do it.
		if !r.expose {
			return
		}
		r.log = append(r.log, "Memory()")
		r.view = inst.Memory()
		r.view[rng.Intn(len(r.view))] ^= 0xFF
		if hr := inst.HostRegion(); len(hr) > 0 { // none on the guard backend
			hr[0] ^= 0xFF
		}
	case 24:
		// Capture, check the capture, and continue on the new base.
		r.log = append(r.log, "Snapshot()")
		snap, err := inst.Snapshot()
		if err != nil {
			r.fail("snapshot: %v", err)
		}
		r.t.Cleanup(snap.Close)
		r.setImage(snap)
		r.checkEqualsImage("after capture")
	case 25:
		if rng.Intn(4) == 0 {
			r.log = append(r.log, "restore birth image")
			if err := inst.RestoreFromSnapshot(r.birth, val); err != nil {
				r.fail("restore of the birth image: %v", err)
			}
			r.segs = r.segs[:0]
			r.checkEquals("after restoring the birth image", r.fresh, remapTags(r.freshTags, r.freshTag, inst.sandbox))
		}
	default:
		if r.snap != nil {
			r.restore()
		}
	}
	// A retained view stays writable for as long as it is the live
	// buffer: an install (grow, new image, the birth image) may have replaced or
	// shrunk it.
	if len(r.view) > 0 && len(r.view) <= int(inst.memSize) && &r.view[0] == &inst.mem[0] && rng.Intn(4) == 0 {
		r.log = append(r.log, "write through retained view")
		r.view[rng.Intn(len(r.view))] ^= 0xFF
	}
}

// setImage makes snap, just captured from r.inst, the rig's base image.
func (r *restoreRig) setImage(snap *Snapshot) {
	r.snap, r.img, r.imgTags = snap, bytes.Clone(r.inst.mem), nil
	if r.inst.tags != nil {
		r.imgTags = bytes.Clone(r.inst.tags.Tags())
	}
}

// remapTags returns a copy of tags with every granule tagged from
// retagged to: a tag array as an instance of another sandbox holds it.
func remapTags(tags []uint8, from, to uint8) []uint8 {
	out := bytes.Clone(tags)
	for i, tg := range out {
		if tg == from {
			out[i] = to
		}
	}
	return out
}

// expectedTags is the image's tag array as this instance must hold it:
// the capturing instance's sandbox tag remapped to its own.
func (r *restoreRig) expectedTags() []uint8 {
	return remapTags(r.imgTags, r.snap.sandbox, r.inst.sandbox)
}

// restore checks the witness — when the restore will take the dirty-page
// leg, every page that differs from the image must be in the set — then
// restores and checks the result.
func (r *restoreRig) restore() {
	inst, s := r.inst, r.snap
	r.log = append(r.log, "restore")
	if inst.lastImage == s && inst.memSize == s.memSize {
		var tags, want []uint8
		if inst.tags != nil {
			tags, want = inst.tags.Tags(), r.expectedTags()
		}
		for p := 0; p < inst.dirty.pages; p++ {
			off, end := p<<dirtyPageShift, min((p+1)<<dirtyPageShift, len(inst.mem))
			differs := !bytes.Equal(inst.mem[off:end], r.img[off:end]) ||
				!bytes.Equal(tags[min(off/mte.GranuleSize, len(tags)):min(end/mte.GranuleSize, len(tags))],
					want[min(off/mte.GranuleSize, len(want)):min(end/mte.GranuleSize, len(want))])
			if differs && !inst.dirty.has(p) {
				r.fail("page %d differs from the image but is not in the dirty set", p)
			}
		}
	}
	if err := inst.RestoreFromSnapshot(s, r.rng.Uint64()); err != nil {
		r.fail("restore: %v", err)
	}
	r.segs = r.segs[:0]
	r.checkEqualsImage("after restore")
}

func (r *restoreRig) checkEqualsImage(when string) {
	if r.inst.memSize != r.snap.memSize {
		r.fail("%s: memory size %d, image %d", when, r.inst.memSize, r.snap.memSize)
	}
	r.checkEquals(when, r.img, r.expectedTags())
}

// checkEquals compares the instance's whole memory and whole tag array
// with mem and tags.
func (r *restoreRig) checkEquals(when string, mem []byte, tags []uint8) {
	r.t.Helper()
	r.compare(when, r.inst.mem, mem, r.inst.tagArray(), tags)
}

// compare fails on the first page whose bytes, or granule whose tag,
// differs. A guard-region instance has no host reserve; what it is
// compared with may.
func (r *restoreRig) compare(when string, mem, wantMem []byte, tags, wantTags []uint8) {
	r.t.Helper()
	if len(mem) > len(wantMem) {
		r.fail("%s: memory of %d bytes, want %d", when, len(mem), len(wantMem))
	}
	if !bytes.Equal(mem, wantMem[:len(mem)]) {
		for p := 0; p<<dirtyPageShift < len(mem); p++ {
			off, end := p<<dirtyPageShift, min((p+1)<<dirtyPageShift, len(mem))
			if !bytes.Equal(mem[off:end], wantMem[off:end]) {
				r.fail("%s: bytes of page %d differ", when, p)
			}
		}
	}
	if len(tags) != len(wantTags) {
		r.fail("%s: %d tag granules, want %d", when, len(tags), len(wantTags))
	}
	for g := range tags {
		if tags[g] != wantTags[g] {
			r.fail("%s: granule %d (page %d) has tag %#x, want %#x", when, g, g/256, tags[g], wantTags[g])
		}
	}
}

// drainMemPool empties the recycling list, so the next birth runs on
// never-used storage.
func drainMemPool() {
	for len(memPool) > 0 {
		<-memPool
	}
}

// rebirth is the retire → rebirth step that ends a sequence: whatever the
// instances under test went through, closing them hands their storage to
// the next birth of that size, scrubbed by the pages they wrote and not
// whole, and nothing of theirs may reach it. Each retiree is closed in
// front of one of two births — a fresh instantiation, and a fork of an
// image neither retiree ever held — whose whole memory and whole tag
// array must equal those of the same birth on never-used storage. Under
// per-instance sandbox tags the retiree's tag is kept busy, so the taker
// draws another and the tag layout itself has to change hands.
func (r *restoreRig) rebirth(m *wasm.Module, cfg Config, builder *Instance) {
	rng := r.rng
	cfg.Snapshot = nil
	other := r.otherImage(m, cfg)
	kinds := []*Snapshot{nil, other} // fresh instantiation, fork of other
	retirees := []*Instance{r.inst}
	if builder != r.inst {
		retirees = append(retirees, builder)
	}
	if rng.Intn(2) == 0 {
		slices.Reverse(kinds)
	}
	if rng.Intn(2) == 0 {
		slices.Reverse(retirees)
	}
	// born instantiates, notes what it holds, and retires again.
	born := func() held {
		inst, err := NewInstance(m, cfg)
		if err != nil {
			r.fail("rebirth: %v", err)
		}
		defer inst.Close()
		return holdings(inst)
	}
	perInstanceTags := core.NewPolicy(cfg.Features).MaxSandboxes > 1 && cfg.Features.Sandbox
	for i, kind := range kinds {
		cfg.Snapshot = kind
		when := "fresh birth"
		if kind != nil {
			when = "fork of another image"
		}
		// Past the last retiree the pool holds the previous reference
		// birth's storage: a retiree too, if a dull one.
		var retired held
		if i < len(retirees) {
			retired = holdings(retirees[i])
			r.log = append(r.log, fmt.Sprintf("retire (%d bytes, pinned=%v), %s", len(retired.mem), retired.pinned, when))
			drainMemPool()
			retirees[i].Close()
			if perInstanceTags {
				if _, err := cfg.Sandboxes.Acquire(); err != nil { // the lowest free tag: the retiree's
					r.fail("rebirth: %v", err)
				}
			}
		}
		got := born()
		drainMemPool()
		want := born()
		if got.tag != want.tag {
			r.fail("%s: the two births drew sandbox tags %d and %d", when, got.tag, want.tag)
		}
		r.compare(when+" on recycled storage", got.mem, want.mem, got.tags, want.tags)
		if !retired.heap {
			continue // no retiree, or an unmapped reservation, whose address may be mapped again
		}
		if perInstanceTags && got.tag == retired.tag {
			r.fail("%s: the taker drew the retiree's sandbox tag %d", when, got.tag)
		}
		// Handed on exactly when nothing can still write through it and
		// the taker wants that size on the heap.
		if handOn := !retired.pinned && got.heap && len(got.mem) == len(retired.mem); (got.buf == retired.buf) != handOn {
			r.fail("%s: retiree's storage (%d bytes, pinned=%v) handed to the taker (%d bytes, heap=%v): %v, want %v",
				when, len(retired.mem), retired.pinned, len(got.mem), got.heap, got.buf == retired.buf, handOn)
		}
	}
}

// held is what an instance holds at one moment: where its memory is and
// on what backend, whether a view of it escaped, its sandbox tag, and
// copies of the whole memory and tag array.
type held struct {
	buf          *byte
	heap, pinned bool
	tag          uint8
	mem          []byte
	tags         []uint8
}

func holdings(inst *Instance) held {
	return held{&inst.mem[0], inst.gmap == nil, inst.dirty.pinned, inst.sandbox,
		bytes.Clone(inst.mem), bytes.Clone(inst.tagArray())}
}

// otherImage captures an image no instance of the sequence ever held,
// from a private instance that wrote a few pages of its own. When the
// instance under test has grown, so has this one: the image's forks are
// then the takers a grown memory can be handed to.
func (r *restoreRig) otherImage(m *wasm.Module, cfg Config) *Snapshot {
	cfg.Sandboxes = core.NewSandboxAllocator(core.NewPolicy(cfg.Features))
	inst, err := NewInstance(m, cfg)
	if err != nil {
		r.fail("other image: %v", err)
	}
	defer inst.Close()
	if r.inst.memSize > inst.memSize {
		inst.GrowMemory((r.inst.memSize - inst.memSize) / wasm.PageSize)
	}
	pages := int(inst.memSize / dirtyPageSize)
	for i := 0; i < 3; i++ {
		_ = inst.WriteU64(uint64(r.rng.Intn(pages))*dirtyPageSize+dirtyPageSize-4, r.rng.Uint64()|1) // straddles
		if inst.tags != nil {
			_, _ = inst.HostSegmentNew(uint64(r.rng.Intn(pages))*dirtyPageSize+uint64(r.rng.Intn(200))*16, uint64(1+r.rng.Intn(300))*16)
		}
	}
	other, err := inst.Snapshot()
	if err != nil {
		r.fail("other image: %v", err)
	}
	r.t.Cleanup(other.Close)
	return other
}

// runRestoreSequence drives one seeded sequence on one configuration.
func runRestoreSequence(t *testing.T, name string, seed uint64, mem64 bool, feats core.Features, fused bool) {
	rng := rand.New(rand.NewSource(int64(seed)))
	m := restoreToolbox(mem64)
	cfg := Config{
		Features:    feats,
		HostModules: []*HostModule{restoreHost()},
		Seed:        seed | 1,
		// Half the sequences run with the bounds check lowered away, so
		// guest stores can reach the host reserve.
		SkipBoundsChecks: seed&1 != 0,
		Sandboxes:        core.NewSandboxAllocator(core.NewPolicy(feats)),
	}
	if fused {
		prog, err := LowerModule(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Program = fuse.Fuse(prog, nil)
	}
	drainMemPool()
	builder, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { builder.Close() })
	r := &restoreRig{t: t, name: name, rng: rng, inst: builder, expose: seed&12 == 0}
	r.fresh, r.freshTags, r.freshTag = bytes.Clone(builder.mem), bytes.Clone(builder.tagArray()), builder.sandbox
	if r.birth, err = builder.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Initialise a little, capture, and drive either the capturing
	// instance (the capture armed its witness) or a fork of the image
	// (installed; under sandboxing with a different sandbox tag, so tag
	// restores remap).
	for i := 0; i < 4; i++ {
		r.step()
	}
	snap, err := builder.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(snap.Close)
	r.setImage(snap)
	r.checkEqualsImage("after first capture")
	if seed&2 != 0 && feats != core.CageAll() { // the combined mode has one sandbox tag
		cfg.Snapshot = r.snap
		if r.inst, err = NewInstance(m, cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.inst.Close() })
		r.segs = r.segs[:0]
		r.checkEqualsImage("after fork")
	}
	for i := 0; i < 64; i++ {
		r.step()
	}
	r.restore()
	// A few more steps, so that the retirees below are not always just
	// restored ones.
	for i := 0; i < 8; i++ {
		r.step()
	}
	r.rebirth(m, cfg, builder)
}

// TestRestoreToolboxFusesStore keeps the fused tier of the sequences
// honest: spin must reach the fused store, or half the matrix would
// silently re-run the lowered store.
func TestRestoreToolboxFusesStore(t *testing.T) {
	for _, mem64 := range []bool{false, true} {
		m := restoreToolbox(mem64)
		prog, err := LowerModule(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		fused := false
		for _, fn := range fuse.Fuse(prog, nil).Funcs {
			for _, in := range fn.Code {
				fused = fused || in.Op == ir.OpFusedALUStore
			}
		}
		if !fused {
			t.Errorf("mem64=%v: no fused ALU+store in the toolbox's fused program", mem64)
		}
	}
}

// FuzzRestoreSoundness: see the file comment. Each input is a seed; each
// seed runs on every feature set, lowered and fused.
func FuzzRestoreSoundness(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, tc := range restoreFuzzConfigs {
			for _, fused := range []bool{false, true} {
				name := fmt.Sprintf("%s fused=%v seed=%d", tc.name, fused, seed)
				runRestoreSequence(t, name, seed, tc.mem64, tc.feats, fused)
			}
		}
	})
}
