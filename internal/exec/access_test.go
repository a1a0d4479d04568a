package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// The dispatch loop's load and store blocks open-code the accepting
// case of the hot address variants and hand everything else to the
// address functions (addrG32, addrB64, addrMTE), which stay the one
// definition of an access's semantics, events and traps. These tests
// hold the open-coded half to that definition.

// accessVariant is one specialized memory opcode pair and an instance
// configuration that can run it.
type accessVariant struct {
	load, store ir.Op
	wasm32      bool
	cfg         Config
}

var accessVariants = []accessVariant{
	{ir.OpLoadG32, ir.OpStoreG32, true, Config{}},
	{ir.OpLoadG32NC, ir.OpStoreG32NC, true, Config{SkipBoundsChecks: true}},
	{ir.OpLoadG32G, ir.OpStoreG32G, true, Config{}},
	{ir.OpLoadB64, ir.OpStoreB64, false, Config{}},
	{ir.OpLoadB64NC, ir.OpStoreB64NC, false, Config{SkipBoundsChecks: true}},
	{ir.OpLoadB64Tag, ir.OpStoreB64Tag, false, Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}}},
	{ir.OpLoadB64NCTag, ir.OpStoreB64NCTag, false,
		Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}, SkipBoundsChecks: true}},
	{ir.OpLoadMTE, ir.OpStoreMTE, false, Config{Features: core.Features{Sandbox: true, MTEMode: mte.ModeSync}}},
	{ir.OpLoadMTE, ir.OpStoreMTE, false, Config{Features: core.CageAll()}},
	{ir.OpLoadMTENC, ir.OpStoreMTENC, false,
		Config{Features: core.Features{Sandbox: true, MTEMode: mte.ModeSync}, SkipBoundsChecks: true}},
}

// refAddr is the address function a variant's load or store calls: the
// reference the access blocks are held to, with the check events the
// access makes — a bounds check, a tag check unless the access is out
// of bounds first, the MTE mask and tag check. The guard variants have
// no address function — the MMU checks them — so theirs is the
// committed prefix.
func refAddr(inst *Instance, op ir.Op, idx, off, sz uint64, write bool) (uint64, error) {
	ctr := inst.counter
	tagCheck := arch.EvTagCheckLoad
	if write {
		op -= ir.OpStoreG32 - ir.OpLoadG32
		tagCheck = arch.EvTagCheckStore
	}
	b64 := func(check, tags bool) (uint64, error) {
		if check {
			ctr.Add(arch.EvBoundsCheck, 1)
		}
		addr, err := inst.addrB64(idx, off, sz, write, check, tags)
		if tags && !IsTrap(err, TrapOutOfBounds) {
			ctr.Add(tagCheck, 1)
		}
		return addr, err
	}
	switch op {
	case ir.OpLoadG32:
		return inst.addrG32(idx, off, sz, inst.memSize, write)
	case ir.OpLoadG32NC:
		return inst.addrG32(idx, off, sz, uint64(len(inst.mem)), write)
	case ir.OpLoadG32G:
		addr := uint64(uint32(idx)) + off
		if addr+sz > inst.memSize {
			return 0, newTrap(TrapOutOfBounds, "guard region")
		}
		return addr, nil
	case ir.OpLoadB64:
		return b64(true, false)
	case ir.OpLoadB64NC:
		return b64(false, false)
	case ir.OpLoadB64Tag:
		return b64(true, true)
	case ir.OpLoadB64NCTag:
		return b64(false, true)
	case ir.OpLoadMTE:
		ctr.Add(arch.EvMask, 1)
		ctr.Add(tagCheck, 1)
		return inst.addrMTE(idx, off, sz, write, true)
	default:
		ctr.Add(tagCheck, 1)
		return inst.addrMTE(idx, off, sz, write, false)
	}
}

// TestAccessBlocksMatchAddressFunctions: for every variant, over random
// indices, offsets, widths and tag layouts, a load or store run through
// the dispatch loop accepts exactly the accesses its address function
// accepts, at the address it returns — the loaded value and the written
// bytes say which — with the same events, and traps where it traps with
// the same trap; an accepted store's pages are in the dirty set.
func TestAccessBlocksMatchAddressFunctions(t *testing.T) {
	loadOps := map[uint64][]wasm.Opcode{
		1: {wasm.OpI64Load8U, wasm.OpI64Load8S, wasm.OpI32Load8S},
		2: {wasm.OpI64Load16U, wasm.OpI64Load16S, wasm.OpI32Load16S},
		4: {wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32S, wasm.OpI64Load32U},
		8: {wasm.OpI64Load, wasm.OpF64Load},
	}
	storeOps := map[uint64]wasm.Opcode{1: wasm.OpI64Store8, 2: wasm.OpI64Store16, 4: wasm.OpI32Store, 8: wasm.OpI64Store}
	for _, v := range accessVariants {
		name := fmt.Sprintf("%v/%+v", v.load, v.cfg.Features)
		t.Run(name, func(t *testing.T) {
			m := i64m(wasm.I64Const(0), wasm.End())
			if v.wasm32 {
				m.Mems[0].Memory64 = false
			}
			prog, err := LowerModule(m, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			prog.Funcs[0].MaxStack, prog.Funcs[0].FrameSize = 2, 2
			cfg := v.cfg
			cfg.Program, cfg.Seed = prog, 7
			inst, err := NewInstance(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v.load == ir.OpLoadG32G && inst.gmem == nil {
				t.Skip("no guard reservation on this platform")
			}
			rng := rand.New(rand.NewSource(int64(v.load) + int64(len(name))))
			rng.Read(inst.mem) // every 8-byte window is, in all likelihood, unique
			tag := uint8(0)
			if inst.tags != nil {
				// A tag layout that mostly matches the pointers drawn
				// below, with mismatching granules strewn through it.
				tag = ptrlayout.Tag(inst.heapBase)
				if v.load == ir.OpLoadB64Tag || v.load == ir.OpLoadB64NCTag {
					tag = 3
				}
				tags := inst.tags.Tags()
				for g := range tags[:inst.memSize/mte.GranuleSize] {
					tags[g] = tag
					if rng.Intn(6) == 0 {
						tags[g] = uint8(rng.Intn(mte.NumTags))
					}
				}
			}
			run := func(code []ir.Instr) (uint64, arch.Counter, error) {
				setCode(inst, prog, append(code, ir.Instr{Op: ir.OpRetEnd, A: 1}))
				res, err := inst.InvokeWith(context.Background(), "f", nil, CallOptions{})
				if err != nil {
					return 0, res.Events, err
				}
				return res.Values[0], res.Events, nil
			}
			for i := 0; i < 3000; i++ {
				sz := uint64(1) << rng.Intn(4)
				// Addresses cluster at the ends of the guest memory and of
				// the host reserve; a few wrap or carry foreign tag bits.
				var idx uint64
				switch rng.Intn(4) {
				case 0:
					idx = uint64(rng.Intn(len(inst.mem) + 64))
				case 1:
					idx = inst.memSize - 24 + uint64(rng.Intn(48))
				case 2:
					idx = uint64(len(inst.mem)) - 24 + uint64(rng.Intn(48))
				default:
					idx = rng.Uint64()
				}
				if inst.tags != nil && rng.Intn(4) != 0 {
					idx = ptrlayout.WithTag(idx, tag)
				}
				off := uint64(rng.Intn(40))
				if rng.Intn(20) == 0 && v.load != ir.OpLoadG32G { // lowering bounds a guard offset
					off = uint64(math.MaxUint32) - uint64(rng.Intn(40))
				}
				write := rng.Intn(3) == 0
				what := fmt.Sprintf("idx %#x off %#x size %d write %v", idx, off, sz, write)

				op, memOp := v.load, loadOps[sz][rng.Intn(len(loadOps[sz]))]
				if write {
					op, memOp = v.store, storeOps[sz]
				}
				before := inst.counter.Snapshot()
				addr, refErr := refAddr(inst, op, idx, off, sz, write)
				want := inst.counter.DeltaSince(before)
				want.Add(arch.EvConst, 1)
				inst.dirty.clear()

				val := rng.Uint64()
				mem := inst.mem
				if v.load == ir.OpLoadG32G {
					mem = inst.gmem
				}
				var code []ir.Instr
				if write {
					want.Add(arch.EvConst, 1)
					if refErr == nil {
						want.Add(arch.EvConst, 1) // the trailing result
					}
					want.Add(arch.EvStore, 1)
					code = []ir.Instr{{Op: ir.OpConst, A: idx}, {Op: ir.OpConst, A: val},
						{Op: op, A: off, B: ir.PackMem(sz, memOp)}, {Op: ir.OpConst}}
				} else {
					want.Add(arch.EvLoad, 1)
					code = []ir.Instr{{Op: ir.OpConst, A: idx}, {Op: op, A: off, B: ir.PackMem(sz, memOp)}}
				}
				got, events, err := run(code)

				var trap *Trap
				if refErr != nil {
					var refTrap *Trap
					errors.As(refErr, &refTrap)
					if !errors.As(err, &trap) || trap.Code != refTrap.Code ||
						v.load != ir.OpLoadG32G && trap.Msg != refTrap.Msg {
						t.Fatalf("%s: address function traps %v, dispatch loop %v", what, refErr, err)
					}
				} else if err != nil {
					t.Fatalf("%s: address function accepts %#x, dispatch loop %v", what, addr, err)
				} else if write {
					w := make([]byte, 8)
					binary.LittleEndian.PutUint64(w, val)
					if string(mem[addr:addr+sz]) != string(w[:sz]) {
						t.Fatalf("%s: stored %x at %#x, want %x", what, mem[addr:addr+sz], addr, w[:sz])
					}
					for p := addr >> dirtyPageShift; p <= (addr+sz-1)>>dirtyPageShift; p++ {
						if !inst.dirty.has(int(p)) {
							t.Fatalf("%s: page %d not in the dirty set", what, p)
						}
					}
				} else if w := extendLoad(memOp, readScalar(mem, addr, sz)); got != w {
					t.Fatalf("%s: loaded %#x, the address function's %#x reads %#x", what, got, addr, w)
				}
				if events != want {
					t.Fatalf("%s: events %v, want %v", what, events.EventCounts(), want.EventCounts())
				}
			}
		})
	}
}

// TestAccessBlockTraps: the edges of the open-coded acceptance, each
// through a fused form (fused.idx1+load, fused.alu+store) and through
// its constituents, which run the unfused load or store; the two runs
// must agree on the value or the trap and on every event total. Then
// every opcode with a memory constituent traps there, on the heap
// backings, with the lowered tier's and the oracle's event totals
// (MemConstituentTraps; TestGuardOOBTraps has the guard fault).
func TestAccessBlockTraps(t *testing.T) {
	for _, mode := range []string{"bounds64", "b64tag-oob", "b64tag-mismatch", "mte"} {
		MemConstituentTraps(t, mode)
	}
	memsafety := core.Features{MemSafety: true, MTEMode: mte.ModeSync}
	sandbox := core.Features{Sandbox: true, MTEMode: mte.ModeSync}
	const memSize = wasm.PageSize
	cases := []struct {
		name    string
		feats   core.Features
		segment bool   // the address is relative to a tagged 16-byte segment at 1024
		addr    uint64 // the access's address, b + i·1 with i = 0
		code    TrapCode
	}{
		{"bounds64 ends at the end of memory", core.Features{}, false, memSize - 8, 0},
		{"bounds64 one byte past the end", core.Features{}, false, memSize - 7, TrapOutOfBounds},
		{"memsafety ends at the end of memory", memsafety, false, memSize - 8, 0},
		{"memsafety one byte past the end", memsafety, false, memSize - 7, TrapOutOfBounds},
		{"mte ends at the end of guest memory", sandbox, false, memSize - 8, 0},
		{"mte one byte into the host reserve", sandbox, false, memSize - 7, TrapTagMismatch},
		{"mte past the host reserve", sandbox, false, memSize + hostReserveSize - 7, TrapTagMismatch},
		{"memsafety straddles into a granule of another tag", memsafety, true, 12, TrapTagMismatch},
		{"full straddles into a granule of another tag", core.CageAll(), true, 12, TrapTagMismatch},
		{"memsafety inside the segment", memsafety, true, 8, 0},
		{"full inside the segment", core.CageAll(), true, 8, 0},
		{"mte masked index wraps", sandbox, false, 0xF<<56 | 256, 0},
		{"full masked index wraps", core.CageAll(), false, 1<<56 | 256, 0},
		{"memsafety tag mismatch", memsafety, false, ptrlayout.WithTag(256, 5), TrapTagMismatch},
		{"memsafety async mismatch is latched", core.Features{MemSafety: true, MTEMode: mte.ModeAsync},
			false, ptrlayout.WithTag(256, 5), TrapTagMismatch},
		{"full async mismatch is latched", core.Features{MemSafety: true, Sandbox: true, MTEMode: mte.ModeAsync},
			true, 12, TrapTagMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []uint64{8, 4} {
				loadOp, storeOp := wasm.OpI64Load, wasm.OpI64Store
				if size == 4 {
					loadOp, storeOp = wasm.OpI64Load32S, wasm.OpI64Store32
				}
				// The same edge for the narrower access: 4 bytes from the
				// end, or straddling from 14 bytes into the segment.
				edge := tc.addr
				if size == 4 && (edge&0xFFFF >= memSize-8 || tc.segment && edge == 12) {
					edge += 2
					if !tc.segment {
						edge += 2
					}
				}
				for _, height := range []int{1, 0} {
					b := newIdiomBench(t, tc.feats, height)
					addr := edge
					if tc.segment {
						base, err := b.inst.HostSegmentNew(1024, 16)
						if err != nil {
							t.Fatal(err)
						}
						addr += base
					}
					binary.LittleEndian.PutUint64(b.inst.mem[256:], 0x8877665544332211)
					store := b.load - ir.OpLoadG32 + ir.OpStoreG32
					if height == 1 {
						in := ir.Instr{Op: ir.OpFusedIdx1Load, A: 0<<48 | 1<<32,
							B: ir.PackIdxMem(1, 0, ir.PackFusedMem(size, b.load, 0, loadOp))}
						r := b.both(t, "load", nil, func(int) ir.Instr { return in }, [idiomLocals]uint64{addr}, 0)
						if r.code != tc.code {
							t.Errorf("size %d load: trap %v %q, want %v", size, r.code, r.text, tc.code)
						}
						if tc.code == 0 && addr&0xFFF == 256 && r.values[0] != extendLoad(loadOp, 0x8877665544332211) {
							t.Errorf("size %d load: %#x, want the value at 256", size, r.values[0])
						}
						continue
					}
					// alu; store: the i64.add computes the stored value.
					in := ir.Instr{Op: ir.OpFusedALUStore, B: ir.PackFusedMem(size, store, wasm.OpI64Add, storeOp)}
					page := int(ptrlayout.Address(addr) >> dirtyPageShift)
					for _, fused := range []bool{true, false} {
						b.inst.dirty.clear()
						r := b.run(consts(addr, 40, 2), func(int) []ir.Instr {
							if fused {
								return []ir.Instr{in}
							}
							return in.Constituents()
						}, [idiomLocals]uint64{}, 0)
						if r.code != tc.code {
							t.Errorf("size %d store (fused %v): trap %v %q, want %v", size, fused, r.code, r.text, tc.code)
						}
						if r.code == 0 && !b.inst.dirty.has(page) {
							t.Errorf("size %d store (fused %v): page %d not in the dirty set", size, fused, page)
						}
					}
					b.both(t, "store", consts(addr, 40, 2), func(int) ir.Instr { return in }, [idiomLocals]uint64{}, 0)
				}
			}
		})
	}
}

// memTrapRow is one opcode with a memory constituent, as the wasm that
// lowers and fuses to it: f(b, i, n, j, x) first sets global 0 to i,
// then forms an address from b, i, n, j and global 0 — b itself for the
// arguments memTrapArgs passes — and accesses it. op is the fused
// opcode f's access becomes, or 0 for a plain load or store.
type memTrapRow struct {
	name   string
	op     ir.Op
	store  bool
	wasm32 bool // the form exists for a wasm32 module
	body   func(a memTrapAddr) []wasm.Instr
}

// memTrapAddr is the address arithmetic of one memory width.
type memTrapAddr struct {
	add, mul, load, store wasm.Opcode
	konst                 func(int64) wasm.Instr
}

var (
	memTrapAddr64 = memTrapAddr{wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64Load, wasm.OpI64Store, wasm.I64Const}
	memTrapAddr32 = memTrapAddr{wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32Load, wasm.OpI32Store,
		func(v int64) wasm.Instr { return wasm.I32Const(int32(v)) }}
)

// memTrapRows covers every opcode with a memory constituent: the plain
// load and store, the shapes (fused.load+alu, fused.alu+load,
// fused.alu+store, fused.const+alu+alu+load+alu), their idioms and the
// indexed loads. A scale of 0x10000 keeps the shape from the indexed
// forms, which only take 16-bit scales.
func memTrapRows() []memTrapRow {
	get, op := wasm.LocalGet, wasm.Op
	f64 := func(alu wasm.Opcode, seq ...wasm.Instr) []wasm.Instr {
		return append(append([]wasm.Instr{get(4)}, seq...),
			wasm.Load(wasm.OpF64Load, 0), op(alu), op(wasm.OpI64ReinterpretF64))
	}
	idx1 := []wasm.Instr{get(0), get(1), wasm.I64Const(8), op(wasm.OpI64Mul), op(wasm.OpI64Add)}
	idx2 := []wasm.Instr{get(0), get(1), get(2), op(wasm.OpI64Mul), get(3), op(wasm.OpI64Add),
		wasm.I64Const(8), op(wasm.OpI64Mul), op(wasm.OpI64Add)}
	idx3 := []wasm.Instr{get(0), get(1), get(2), op(wasm.OpI64Mul),
		wasm.I64Const(8), op(wasm.OpI64Mul), op(wasm.OpI64Add)}
	idx1k := []wasm.Instr{get(0), get(1), wasm.I32Const(1), op(wasm.OpI64ExtendI32S), op(wasm.OpI64Add),
		wasm.I64Const(8), op(wasm.OpI64Mul), op(wasm.OpI64Add)}
	scaled := []wasm.Instr{get(0), wasm.GlobalGet(0), wasm.I64Const(0x10000), op(wasm.OpI64Mul), op(wasm.OpI64Add)}
	load := func(seq []wasm.Instr) []wasm.Instr {
		return append(append([]wasm.Instr{}, seq...), wasm.Load(wasm.OpI64Load, 0))
	}
	return []memTrapRow{
		{"load", 0, false, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(0), wasm.Load(a.load, 0)}
		}},
		{"store", 0, true, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(0), get(1), wasm.Store(a.store, 0), a.konst(1)}
		}},
		{"load+alu", ir.OpFusedLoadALU, false, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(1), get(0), wasm.Load(a.load, 0), op(a.add)}
		}},
		{"alu+load", ir.OpFusedALULoad, false, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(0), wasm.GlobalGet(0), op(a.add), wasm.Load(a.load, 0)}
		}},
		{"alu+store", ir.OpFusedALUStore, true, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(0), get(1), wasm.GlobalGet(0), op(a.add), wasm.Store(a.store, 0), a.konst(1)}
		}},
		{"const+alu+alu+load+alu", ir.OpFusedConstALUALULoadALU, false, true, func(a memTrapAddr) []wasm.Instr {
			return []wasm.Instr{get(1), get(0), wasm.GlobalGet(0), a.konst(0x10000), op(a.mul), op(a.add),
				wasm.Load(a.load, 0), op(a.add)}
		}},
		{"const+mul+add+load+f64.mul", ir.OpFusedConstI64MulAddLoadF64Mul, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Mul, scaled...)
		}},
		{"const+mul+add+load+f64.add", ir.OpFusedConstI64MulAddLoadF64Add, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Add, scaled...)
		}},
		{"const+mul+add+load+f64.sub", ir.OpFusedConstI64MulAddLoadF64Sub, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Sub, scaled...)
		}},
		{"idx1+load", ir.OpFusedIdx1Load, false, false, func(memTrapAddr) []wasm.Instr { return load(idx1) }},
		{"idx1+load+f64.mul", ir.OpFusedIdx1LoadF64Mul, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Mul, idx1...)
		}},
		{"idx1+load+f64.add", ir.OpFusedIdx1LoadF64Add, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Add, idx1...)
		}},
		{"idx2+load", ir.OpFusedIdx2Load, false, false, func(memTrapAddr) []wasm.Instr { return load(idx2) }},
		{"idx2+load+f64.mul", ir.OpFusedIdx2LoadF64Mul, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Mul, idx2...)
		}},
		{"idx3+load+f64.mul", ir.OpFusedIdx3LoadF64Mul, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Mul, idx3...)
		}},
		{"idx1±k+load", ir.OpFusedIdx1KLoad, false, false, func(memTrapAddr) []wasm.Instr { return load(idx1k) }},
		{"idx1±k+load+f64.add", ir.OpFusedIdx1KLoadF64Add, false, false, func(memTrapAddr) []wasm.Instr {
			return f64(wasm.OpF64Add, idx1k...)
		}},
	}
}

// memTrapMode is one way a memory constituent traps: the configuration
// and the address (f's b) that makes it trap.
type memTrapMode struct {
	name   string
	feats  core.Features
	wasm32 bool
	addr   uint64
	code   TrapCode
}

var memTrapModes = map[string]memTrapMode{
	"bounds64": {"bounds64 out of bounds", core.Features{}, false, wasm.PageSize, TrapOutOfBounds},
	"b64tag-oob": {"B64Tag out of bounds", core.Features{MemSafety: true, MTEMode: mte.ModeSync},
		false, wasm.PageSize, TrapOutOfBounds},
	"b64tag-mismatch": {"B64Tag tag mismatch", core.Features{MemSafety: true, MTEMode: mte.ModeSync},
		false, ptrlayout.WithTag(256, 5), TrapTagMismatch},
	"mte": {"MTE tag mismatch", core.Features{Sandbox: true, MTEMode: mte.ModeSync},
		false, wasm.PageSize, TrapTagMismatch},
	"guard": {"guard fault", core.Features{}, true, wasm.PageSize, TrapOutOfBounds},
}

// MemConstituentTraps runs every memTrapRows opcode that exists under
// the named memTrapModes entry so that it traps at its memory
// constituent, fused, lowered and through the oracle: the trap code is
// the mode's, and the per-event totals of the three agree — the fused
// and lowered tiers take back what their regions did not run.
func MemConstituentTraps(t *testing.T, modeName string) {
	mode := memTrapModes[modeName]
	addr, at := memTrapAddr64, wasm.I64
	if mode.wasm32 {
		addr, at = memTrapAddr32, wasm.I32
	}
	for _, row := range memTrapRows() {
		if mode.wasm32 && !row.wasm32 {
			continue
		}
		t.Run(mode.name+"/"+row.name, func(t *testing.T) {
			m := buildModule([]wasm.ValType{at, at, at, at, wasm.F64}, []wasm.ValType{at}, nil,
				append(append([]wasm.Instr{wasm.LocalGet(1), wasm.GlobalSet(0)}, row.body(addr)...), wasm.End())...)
			m.Mems[0].Memory64 = !mode.wasm32
			m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: at, Mutable: true}}}
			cfg := Config{Features: mode.feats, Seed: 7}
			prog, err := LowerModule(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fused := fuse.Fuse(prog, nil)
			found := false
			for _, in := range fused.Funcs[0].Code {
				found = found || row.op != 0 && in.Op == row.op ||
					row.op == 0 && (row.store && in.Op.IsStore() || !row.store && in.Op.IsLoad())
			}
			if !found {
				t.Fatalf("f does not fuse to %v: %v", row.op, fused.Funcs[0].Code)
			}
			i := uint64(0)
			if row.op == ir.OpFusedIdx1KLoad || row.op == ir.OpFusedIdx1KLoadF64Add {
				i = ^uint64(0) // i + 1 = 0
			}
			args := []uint64{mode.addr, i, 0, 0, math.Float64bits(1.5)}
			var events [3]arch.Counter
			var codes [3]TrapCode
			tiers := []string{"fused", "lowered", "oracle"}
			for k, tier := range tiers {
				c := cfg
				c.Counter = &events[k]
				if tier == "fused" {
					c.Program = fused
				}
				inst, err := NewInstance(m, c)
				if err != nil {
					t.Fatal(err)
				}
				if tier == "oracle" {
					lr, lerr := NewLegacyRunner(inst)
					if lerr != nil {
						t.Fatal(lerr)
					}
					_, err = lr.Invoke("f", args...)
				} else {
					_, err = inst.Invoke("f", args...)
				}
				if tr, ok := err.(*Trap); ok {
					codes[k] = tr.Code
				} else {
					t.Fatalf("%s: %v, want a trap", tier, err)
				}
			}
			for k, tier := range tiers {
				if codes[k] != mode.code {
					t.Errorf("%s traps %v, want %v", tier, codes[k], mode.code)
				}
				if events[k] != events[2] {
					t.Errorf("%s events %v, the oracle's %v", tier, events[k].EventCounts(), events[2].EventCounts())
				}
			}
		})
	}
}
