package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// newInstance builds an empty wasm64 instance for allocator testing.
func newInstance(t *testing.T, hardened bool) *exec.Instance {
	t.Helper()
	m := &wasm.Module{}
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 2, Max: 64, HasMax: true}, Memory64: true}}
	cfg := exec.Config{Seed: 42}
	if hardened {
		cfg.Features = core.Features{MemSafety: true, MTEMode: mte.ModeSync}
	}
	inst, err := exec.NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func newAlloc(t *testing.T, hardened bool) (*Allocator, *exec.Instance) {
	t.Helper()
	inst := newInstance(t, hardened)
	a, err := New(inst, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return a, inst
}

func TestMallocReturnsAlignedTaggedPointers(t *testing.T) {
	a, _ := newAlloc(t, true)
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		p, err := a.Malloc(24)
		if err != nil {
			t.Fatal(err)
		}
		addr := ptrlayout.Address(p)
		if addr%16 != 0 {
			t.Errorf("allocation %d not 16-byte aligned: %#x", i, addr)
		}
		if ptrlayout.Tag(p) == 0 {
			t.Errorf("allocation %d untagged", i)
		}
		if seen[addr] {
			t.Errorf("address %#x handed out twice", addr)
		}
		seen[addr] = true
	}
}

func TestAdjacentAllocationsSeparatedByUntaggedHeader(t *testing.T) {
	// Fig. 8a: allocator metadata slots stay untagged, so adjacent
	// allocations never share a tag boundary.
	a, inst := newAlloc(t, true)
	p1, err := a.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	end1 := ptrlayout.Address(p1) + 16
	start2 := ptrlayout.Address(p2)
	if start2-end1 != HeaderSize {
		t.Fatalf("gap between allocations = %d, want %d", start2-end1, HeaderSize)
	}
	// The header granule between them is untagged.
	if tag := inst.Tags().TagAt(end1); tag != 0 {
		t.Errorf("metadata slot tagged %d, want 0", tag)
	}
}

func TestHeapOverflowIntoNeighborTraps(t *testing.T) {
	a, inst := newAlloc(t, true)
	p1, _ := a.Malloc(16)
	if _, err := a.Malloc(16); err != nil {
		t.Fatal(err)
	}
	// Off-by-one overflow: one byte past p1's payload lands in the
	// untagged metadata slot and must fault.
	tag := ptrlayout.Tag(p1)
	end := ptrlayout.Address(p1) + 16
	if err := inst.Tags().CheckAccess(end, 1, tag, true); err == nil {
		t.Error("off-by-one heap overflow not caught")
	}
}

func TestUseAfterFreeCaught(t *testing.T) {
	a, inst := newAlloc(t, true)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := inst.Tags().CheckAccess(ptrlayout.Address(p), 8, ptrlayout.Tag(p), false); err == nil {
		t.Error("use-after-free not caught")
	}
}

func TestDoubleFreeCaught(t *testing.T) {
	a, _ := newAlloc(t, true)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double free not caught")
	}
}

func TestInvalidFreeCaught(t *testing.T) {
	a, _ := newAlloc(t, true)
	if err := a.Free(0x4000); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("wild free: got %v", err)
	}
	p, _ := a.Malloc(64)
	// Interior pointer.
	if err := a.Free(p + 16); err == nil {
		t.Error("interior-pointer free accepted")
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	a, _ := newAlloc(t, true)
	if err := a.Free(0); err != nil {
		t.Errorf("free(NULL) = %v", err)
	}
}

func TestReuseAfterFree(t *testing.T) {
	a, _ := newAlloc(t, true)
	p1, _ := a.Malloc(64)
	addr1 := ptrlayout.Address(p1)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Address(p2) != addr1 {
		t.Errorf("freed block not reused: %#x vs %#x", ptrlayout.Address(p2), addr1)
	}
}

func TestCoalescing(t *testing.T) {
	a, _ := newAlloc(t, true)
	p1, _ := a.Malloc(32)
	p2, _ := a.Malloc(32)
	p3, _ := a.Malloc(32)
	base := ptrlayout.Address(p1)
	for _, p := range []uint64{p1, p2, p3} {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// All three coalesce into one block big enough for a 96+ byte
	// allocation at the same base.
	big, err := a.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Address(big) != base {
		t.Errorf("coalesced block not reused: %#x vs %#x", ptrlayout.Address(big), base)
	}
}

func TestCallocZeroes(t *testing.T) {
	for _, hardened := range []bool{true, false} {
		a, inst := newAlloc(t, hardened)
		// Dirty the heap area first.
		p1, _ := a.Malloc(64)
		addr := ptrlayout.Address(p1)
		mem := inst.Memory()
		for i := addr; i < addr+64; i++ {
			mem[i] = 0xEE
		}
		if err := a.Free(p1); err != nil {
			t.Fatal(err)
		}
		p2, err := a.Calloc(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		addr2 := ptrlayout.Address(p2)
		for i := addr2; i < addr2+64; i++ {
			if mem[i] != 0 {
				t.Fatalf("hardened=%v: calloc memory not zeroed at %#x", hardened, i)
			}
		}
	}
}

func TestReallocPreservesData(t *testing.T) {
	a, inst := newAlloc(t, true)
	p, _ := a.Malloc(32)
	addr := ptrlayout.Address(p)
	mem := inst.Memory()
	for i := uint64(0); i < 32; i++ {
		mem[addr+i] = byte(i)
	}
	p2, err := a.Realloc(p, 256)
	if err != nil {
		t.Fatal(err)
	}
	addr2 := ptrlayout.Address(p2)
	for i := uint64(0); i < 32; i++ {
		if mem[addr2+i] != byte(i) {
			t.Fatalf("realloc lost byte %d", i)
		}
	}
	// The old segment is freed: stale pointer faults.
	if err := inst.Tags().CheckAccess(addr, 8, ptrlayout.Tag(p), false); err == nil {
		t.Error("stale pointer usable after realloc move")
	}
}

func TestHeapGrowsViaMemoryGrow(t *testing.T) {
	a, inst := newAlloc(t, true)
	before := inst.MemorySize()
	// Allocate more than the initial 2 pages.
	var ptrs []uint64
	for i := 0; i < 10; i++ {
		p, err := a.Malloc(32 * 1024)
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	if inst.MemorySize() <= before {
		t.Error("heap did not grow memory")
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.InUse != 0 {
		t.Errorf("InUse = %d after freeing everything", a.InUse)
	}
}

func TestOutOfMemory(t *testing.T) {
	a, _ := newAlloc(t, false)
	// Max is 64 pages = 4 MiB; ask for more.
	if _, err := a.Malloc(16 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized malloc: got %v", err)
	}
}

func TestUnhardenedPointersUntagged(t *testing.T) {
	a, _ := newAlloc(t, false)
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Tag(p) != 0 {
		t.Errorf("unhardened malloc returned tagged pointer %#x", p)
	}
}

func TestAllocatorStats(t *testing.T) {
	a, _ := newAlloc(t, true)
	p1, _ := a.Malloc(100) // rounds to 112
	if a.InUse != 112 || a.Meta != HeaderSize {
		t.Errorf("InUse=%d Meta=%d", a.InUse, a.Meta)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if a.InUse != 0 || a.Allocs != 1 || a.Frees != 1 {
		t.Errorf("stats after free: %+v", *a)
	}
	if a.Peak != 112 {
		t.Errorf("Peak = %d", a.Peak)
	}
}

func TestMallocFreeProperty(t *testing.T) {
	// Property: any interleaving of allocations and frees keeps every
	// live allocation accessible through its own pointer and leaves
	// metadata intact.
	f := func(sizes []uint16) bool {
		a, inst := newAlloc(t, true)
		type liveAlloc struct{ ptr, size uint64 }
		var live []liveAlloc
		for i, s16 := range sizes {
			if len(sizes) > 24 && i >= 24 {
				break
			}
			size := uint64(s16%2048) + 1
			p, err := a.Malloc(size)
			if err != nil {
				return false
			}
			live = append(live, liveAlloc{p, size})
			if i%3 == 2 && len(live) > 1 {
				victim := live[0]
				live = live[1:]
				if err := a.Free(victim.ptr); err != nil {
					return false
				}
			}
		}
		for _, la := range live {
			addr := ptrlayout.Address(la.ptr)
			if err := inst.Tags().CheckAccess(addr, la.size, ptrlayout.Tag(la.ptr), true); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUsableSize(t *testing.T) {
	a, _ := newAlloc(t, true)
	p, _ := a.Malloc(50)
	n, err := a.UsableSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Errorf("UsableSize = %d, want 64", n)
	}
}

func TestTagStorageOverheadConstant(t *testing.T) {
	if got := TagStorageOverhead(); got != 0.03125 {
		t.Errorf("tag storage overhead = %f, want 1/32", got)
	}
}

// TestReallocGuestRestoresByPageCount: the allocator's own zeroing
// (calloc, unhardened) and moving (realloc) go through the instance's
// tracked accessors, never its raw memory view, so a guest that uses
// them still gets a restore sized by the pages it touched, not by the
// whole memory.
func TestReallocGuestRestoresByPageCount(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		m := &wasm.Module{}
		m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 2, Max: 64, HasMax: true}, Memory64: true}}
		i64x2 := []wasm.ValType{wasm.I64, wasm.I64}
		two := m.AddType(wasm.FuncType{Params: i64x2, Results: []wasm.ValType{wasm.I64}})
		none := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
		m.Imports = []wasm.Import{
			{Module: HostModule, Name: "calloc", TypeIdx: two},
			{Module: HostModule, Name: "realloc", TypeIdx: two},
		}
		// f(): return realloc(calloc(4, 8), 4096)
		m.Funcs = []wasm.Function{{TypeIdx: none, Body: []wasm.Instr{
			wasm.I64Const(4), wasm.I64Const(8), wasm.Call(0),
			wasm.I64Const(4096), wasm.Call(1), wasm.End()}}}
		m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 2}}

		host := &Host{}
		cfg := exec.Config{Seed: 42, HostModules: HostModules(), HostData: host}
		if hardened {
			cfg.Features = core.Features{MemSafety: true, MTEMode: mte.ModeSync}
		}
		inst, err := exec.NewInstance(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if host.A, err = New(inst, 1024); err != nil {
			t.Fatal(err)
		}
		snap, err := inst.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		heap := host.A.Snapshot()
		for round := 0; round < 3; round++ {
			res, err := inst.Invoke("f")
			if err != nil || res[0] == 0 {
				t.Fatalf("hardened=%v: f() = %v, %v", hardened, res, err)
			}
			if err := inst.RestoreFromSnapshot(snap, uint64(round+1)); err != nil {
				t.Fatal(err)
			}
			host.A.Restore(heap)
			// 32 + 16 + 4096 + 16 bytes from 1024 up: two pages, of 33.
			if got := inst.RestoredPages(); got < 1 || got > 2 {
				t.Fatalf("hardened=%v round %d: restore rewrote %d pages, want 1–2", hardened, round, got)
			}
		}
	}
}
