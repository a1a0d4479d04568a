package exec

import (
	"bytes"
	"runtime"
	"testing"

	"cage/internal/core"
	"cage/internal/mte"
	"cage/internal/wasm"
)

// Restore-witness tests. RestoreFromSnapshot of the image an instance
// already holds copies back only the pages in the dirty set, so a write
// the set missed survives the restore. These tests attack the set
// channel by channel: guest stores, host writes, raw Memory() views,
// memory.grow and segment.new must each dirty what they touch, or a
// pooled instance would leak one tenant's writes into the next tenant's
// checkout. restore_fuzz_test.go attacks it with random sequences.

// dirtyPages counts the pages in the instance's dirty set.
func dirtyPages(inst *Instance) int {
	n := 0
	for lo, hi := inst.dirty.nextRun(0); lo < hi; lo, hi = inst.dirty.nextRun(hi) {
		n += hi - lo
	}
	return n
}

// elisionModule builds a module exporting peek(addr) and poke(addr,
// val) plus a pure add(a, b) that never touches memory.
func elisionModule() *wasm.Module {
	m := &wasm.Module{}
	peek := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	poke := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 16, HasMax: true}, Memory64: true}}
	m.Funcs = []wasm.Function{
		{TypeIdx: peek, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.Load(wasm.OpI64Load, 0), wasm.End()}},
		{TypeIdx: poke, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.Store(wasm.OpI64Store, 0),
			wasm.LocalGet(1), wasm.End()}},
		{TypeIdx: poke, Body: []wasm.Instr{
			wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op(wasm.OpI64Add), wasm.End()}},
	}
	m.Exports = []wasm.Export{
		{Name: "peek", Kind: wasm.ExportFunc, Idx: 0},
		{Name: "poke", Kind: wasm.ExportFunc, Idx: 1},
		{Name: "add", Kind: wasm.ExportFunc, Idx: 2},
	}
	return m
}

// elisionFeatures are the sandbox shapes the witness must hold under:
// every address-translation strategy has its own store sites.
var elisionFeatures = []struct {
	name  string
	feats core.Features
}{
	{"plain", core.Features{}},
	{"sandbox", core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
	{"memsafety", core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
}

func TestRestoreElisionGuestStores(t *testing.T) {
	for _, tc := range elisionFeatures {
		t.Run(tc.name, func(t *testing.T) {
			m := elisionModule()
			inst, err := NewInstance(m, Config{Features: tc.feats})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			snap, err := inst.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 4; round++ {
				// Dirty the heap, then restore: the write must vanish.
				if _, err := inst.Invoke("poke", 128, 0xDEAD+uint64(round)); err != nil {
					t.Fatalf("round %d poke: %v", round, err)
				}
				if err := inst.RestoreFromSnapshot(snap, uint64(round+1)); err != nil {
					t.Fatalf("round %d restore: %v", round, err)
				}
				if res, err := inst.Invoke("peek", 128); err != nil || res[0] != 0 {
					t.Fatalf("round %d: write leaked across restore: peek = %v, %v", round, res, err)
				}
				// The peek dirtied nothing; the next restore must elide
				// (white-box: the witness is armed) — and a pure call
				// after it must still see clean memory.
				if inst.lastImage != snap || dirtyPages(inst) != 0 || inst.dirty.pinned {
					t.Fatalf("round %d: witness not armed (lastImage=%v dirty=%d pinned=%v)",
						round, inst.lastImage == snap, dirtyPages(inst), inst.dirty.pinned)
				}
				if err := inst.RestoreFromSnapshot(snap, uint64(round+100)); err != nil {
					t.Fatalf("round %d elided restore: %v", round, err)
				}
				if res, err := inst.Invoke("add", 3, 4); err != nil || res[0] != 7 {
					t.Fatalf("round %d add after elided restore: %v, %v", round, res, err)
				}
				if res, err := inst.Invoke("peek", 128); err != nil || res[0] != 0 {
					t.Fatalf("round %d: stale byte after elided restore: %v, %v", round, res, err)
				}
			}
		})
	}
}

func TestRestoreElisionHostWrites(t *testing.T) {
	m := elisionModule()
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Arm the witness with one elidable round trip.
	if err := inst.RestoreFromSnapshot(snap, 1); err != nil {
		t.Fatal(err)
	}
	// A runtime-privilege host write must break it.
	if err := inst.WriteU64(256, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if err := inst.RestoreFromSnapshot(snap, 2); err != nil {
		t.Fatal(err)
	}
	if res, err := inst.Invoke("peek", 256); err != nil || res[0] != 0 {
		t.Fatalf("host write leaked across restore: %v, %v", res, err)
	}
}

func TestRestoreElisionRawMemoryView(t *testing.T) {
	m := elisionModule()
	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RestoreFromSnapshot(snap, 1); err != nil {
		t.Fatal(err)
	}
	// Once a raw view has escaped, every later restore must pay the
	// full copy — the holder can write between any two restores.
	for round := 0; round < 3; round++ {
		inst.Memory()[512] = 0xAB
		if err := inst.RestoreFromSnapshot(snap, uint64(round+2)); err != nil {
			t.Fatal(err)
		}
		if res, err := inst.Invoke("peek", 512); err != nil || res[0] != 0 {
			t.Fatalf("round %d: raw-view write leaked across restore: %v, %v", round, res, err)
		}
	}
}

func TestRestoreElisionAfterGrow(t *testing.T) {
	m := elisionModule()
	// Extra func: grow(pages) -> old size, via memory.grow.
	grow := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = append(m.Funcs, wasm.Function{TypeIdx: grow, Body: []wasm.Instr{
		wasm.LocalGet(0), wasm.Op(wasm.OpMemoryGrow), wasm.End()}})
	m.Exports = append(m.Exports, wasm.Export{Name: "grow", Kind: wasm.ExportFunc, Idx: 3})

	inst, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RestoreFromSnapshot(snap, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("grow", 1); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := inst.MemorySize(); got != 2*wasm.PageSize {
		t.Fatalf("after grow: size %d", got)
	}
	if err := inst.RestoreFromSnapshot(snap, 2); err != nil {
		t.Fatal(err)
	}
	if got := inst.MemorySize(); got != snap.MemorySize() {
		t.Fatalf("grow survived restore: size %d, want %d", got, snap.MemorySize())
	}
	if res, err := inst.Invoke("peek", 128); err != nil || res[0] != 0 {
		t.Fatalf("post-grow restore: %v, %v", res, err)
	}
}

// TestRestoreAfterSegmentNewOnly: segment.new zeroes the bytes it covers
// and retags them, with no store instruction involved. A call that only
// executes segment.new over initialised data must still dirty those
// pages, or the zeros (and the fresh tag) reach the next tenant. Both
// the guest opcode and the runtime's HostSegmentNew go through it.
func TestRestoreAfterSegmentNewOnly(t *testing.T) {
	m := &wasm.Module{}
	seg := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}, Memory64: true}}
	m.Datas = []wasm.DataSegment{{Offset: 256, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	m.Funcs = []wasm.Function{{TypeIdx: seg, Body: []wasm.Instr{
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.SegmentNew(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "seg", Kind: wasm.ExportFunc, Idx: 0}}

	inst, err := NewInstance(m, Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	imgTags := bytes.Clone(inst.tags.Tags())
	for _, tc := range []struct {
		name   string
		segNew func() error
	}{
		{"guest", func() error { _, err := inst.Invoke("seg", 256, 16); return err }},
		{"host", func() error { _, err := inst.HostSegmentNew(256, 16); return err }},
	} {
		name := tc.name
		if err := tc.segNew(); err != nil {
			t.Fatalf("%s segment.new: %v", name, err)
		}
		if err := inst.RestoreFromSnapshot(snap, 1); err != nil {
			t.Fatal(err)
		}
		if got, err := inst.ReadBytes(256, 8); err != nil || !bytes.Equal(got, m.Datas[0].Bytes) {
			t.Fatalf("%s segment.new: bytes after restore = %v, %v; want the data segment", name, got, err)
		}
		if !bytes.Equal(inst.tags.Tags(), imgTags) {
			t.Fatalf("%s segment.new: tags after restore differ from the image", name)
		}
	}
}

// TestDirtyRestoreZeroAlloc is the allocation gate for the pooled
// checkin: restoring the image an instance already holds — dirty pages,
// their tag runs, the small state, the scrub — allocates nothing. CI
// runs it without -race beside the call and serve gates.
func TestDirtyRestoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	for _, tc := range elisionFeatures {
		inst, err := NewInstance(elisionModule(), Config{Features: tc.feats})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		snap, err := inst.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var restoreErr error
		avg := testing.AllocsPerRun(100, func() {
			// Two separate pages and a straddling write: three runs.
			_ = inst.WriteU64(128, 1)
			_ = inst.WriteU64(5*dirtyPageSize-4, 2)
			_ = inst.WriteU64(9*dirtyPageSize, 3)
			if err := inst.RestoreFromSnapshot(snap, 7); err != nil {
				restoreErr = err
			}
		})
		if restoreErr != nil {
			t.Fatal(restoreErr)
		}
		if got := inst.RestoredPages(); got != 4 {
			t.Errorf("%s: restore rewrote %d pages, want 4", tc.name, got)
		}
		if avg != 0 {
			t.Errorf("%s: steady-state dirty restore allocates %.1f objects, want 0", tc.name, avg)
		}
	}
}

// TestSnapshotStoresWrittenPagesOnly: an image keeps the bytes — and with
// MTE the tags — of its spans and nothing for the pristine pages between
// them, and still restores and forks every byte and every granule: the
// stored ones, the zeros and the layout.
func TestSnapshotStoresWrittenPagesOnly(t *testing.T) {
	for _, tc := range elisionFeatures {
		t.Run(tc.name, func(t *testing.T) {
			m := elisionModule()
			m.Mems[0].Limits.Min = 4 // 64 pages of 4 KiB, plus the host reserve
			cfg := Config{Features: tc.feats, Sandboxes: core.NewSandboxAllocator(core.NewPolicy(tc.feats))}
			inst, err := NewInstance(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			_ = inst.WriteU64(3*dirtyPageSize-4, 0x1122334455667788) // straddles pages 2 and 3
			_ = inst.WriteU64(40*dirtyPageSize, 7)
			wantGranules := 0
			if inst.tags != nil {
				wantGranules = 4 * dirtyPageSize / mte.GranuleSize
				if _, err := inst.HostSegmentNew(40*dirtyPageSize+64, 48); err != nil && tc.feats.MemSafety {
					t.Fatal(err)
				}
			}
			want, wantTags := bytes.Clone(inst.mem), bytes.Clone(inst.tagArray())
			snap, err := inst.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if len(snap.spans) != 3 || len(snap.mem) != 4*dirtyPageSize || snap.memLen != len(want) || len(snap.tags) != wantGranules {
				t.Fatalf("image stores %d bytes and %d tags in %d spans for a %d-byte memory; want 4 pages and %d tags in 3 spans (2 pages, 1 page, the host reserve)",
					len(snap.mem), len(snap.tags), len(snap.spans), snap.memLen, wantGranules)
			}
			// Dirty the far half of a span, a whole span and two pages the image
			// holds nothing for; the restore must bring back bytes and zeros.
			for _, addr := range []uint64{3*dirtyPageSize + 8, 40 * dirtyPageSize, 17 * dirtyPageSize, 63 * dirtyPageSize} {
				_ = inst.WriteU64(addr, ^uint64(0))
			}
			if inst.tags != nil {
				_, _ = inst.HostSegmentNew(17*dirtyPageSize, 4*dirtyPageSize) // a span-less run, retagged
				_, _ = inst.HostSegmentNew(40*dirtyPageSize, 256)             // over the image's segment
			}
			if err := inst.RestoreFromSnapshot(snap, 1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inst.mem, want) || !bytes.Equal(inst.tagArray(), wantTags) {
				t.Fatal("memory or tags after a dirty-page restore differ from the captured instance's")
			}
			cfg.Snapshot = snap
			fork, err := NewInstance(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			if !bytes.Equal(fork.mem, want) ||
				!bytes.Equal(fork.tagArray(), remapTags(wantTags, inst.sandbox, fork.sandbox)) {
				t.Fatal("memory or tags of a fork differ from the captured instance's")
			}
		})
	}
}

// TestInstallNewImageReusesStorage: an instance that meets a new image of
// its own size — a pooled checkin after Engine.Snapshot(..., WithInit…)
// registered one — scrubs its own storage by the pages it wrote and
// copies the image's spans onto it. It used to leave its multi-MiB
// buffer to the collector and take another.
func TestInstallNewImageReusesStorage(t *testing.T) {
	cfg := Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}}
	m := elisionModule()
	inst, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Snapshot(); err != nil { // the image it holds: the post-start state
		t.Fatal(err)
	}
	other, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	_ = other.WriteU64(3*dirtyPageSize, 0xB)
	if _, err := other.HostSegmentNew(5*dirtyPageSize, 64); err != nil {
		t.Fatal(err)
	}
	image, err := other.Snapshot() // a different image of the same size
	if err != nil {
		t.Fatal(err)
	}
	defer image.Close()

	_ = inst.WriteU64(7*dirtyPageSize, 0xA)
	if _, err := inst.HostSegmentNew(9*dirtyPageSize, 4096); err != nil {
		t.Fatal(err)
	}
	buf := &inst.mem[0]
	if err := inst.RestoreFromSnapshot(image, 1); err != nil {
		t.Fatal(err)
	}
	if inst.RestoredPages() != -1 {
		t.Errorf("a restore to a new image rewrote %d pages in place, want a whole-image install", inst.RestoredPages())
	}
	if &inst.mem[0] != buf {
		t.Error("the install replaced the instance's memory instead of reusing it")
	}
	if !bytes.Equal(inst.mem, other.mem) {
		t.Error("memory after the install differs from the new image")
	}
	for a := uint64(0); a < other.Tags().Size(); a += mte.GranuleSize {
		if got, want := inst.Tags().TagAt(a), other.Tags().TagAt(a); got != want {
			t.Fatalf("granule at %#x has tag %#x after the install, the new image %#x", a, got, want)
		}
	}
}

// TestBirthFromRecycledStorageAllocBytes is the gate that keeps O(memory)
// off the spawn path: under full there is one sandbox tag, so every
// module switch closes an instance and forks the next, and with the
// retiree's storage at hand that birth allocates the instance and its
// small state — not a memory, a tag array or a page set. CI runs it
// without -race beside the other allocation gates.
func TestBirthFromRecycledStorageAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	m := elisionModule()
	m.Mems[0].Limits = wasm.Limits{Min: 101, Max: 128, HasMax: true} // the benchmark modules' 6.6 MB
	cfg := Config{Features: core.CageAll(), Sandboxes: core.NewSandboxAllocator(core.NewPolicy(core.CageAll()))}
	prog, err := LowerModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Program = prog
	inst, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	cfg.Snapshot = snap
	const cycles = 100
	var before, after runtime.MemStats
	var recycled uint64
	for i := -3; i < cycles; i++ { // three cycles of warm-up
		if i == 0 {
			runtime.ReadMemStats(&before)
			recycled, _ = BirthStats()
		}
		inst.Close()
		if inst, err = NewInstance(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	defer inst.Close()
	if perBirth := (after.TotalAlloc - before.TotalAlloc) / cycles; perBirth >= 64<<10 {
		t.Errorf("a close + fork cycle of a %d-byte memory allocates %d bytes, want < 64 KiB", len(inst.mem), perBirth)
	}
	if now, _ := BirthStats(); now-recycled != cycles {
		t.Errorf("%d of %d births ran on recycled storage, want all", now-recycled, cycles)
	}
}

// TestRecycledMemoryIsZero: a closed instance's storage backs the next
// instance of that size, which must see none of the bytes left in it; a
// buffer a Memory() view escaped from is never handed on, because its
// holder may still write through the view.
func TestRecycledMemoryIsZero(t *testing.T) {
	drainMemPool() // earlier tests' buffers, of other sizes
	m := elisionModule()
	first, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Clone(first.mem)
	for addr := uint64(0); addr < first.memSize; addr += dirtyPageSize / 2 {
		_ = first.WriteU64(addr, 0x5EC2E7)
	}
	buf := &first.mem[0]
	first.Close()

	second, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if &second.mem[0] != buf {
		t.Fatal("the closed instance's buffer was not recycled")
	}
	if !bytes.Equal(second.mem, fresh) {
		t.Fatal("a recycled memory differs from a fresh instance's")
	}
	view := second.Memory()
	second.Close()

	third, err := NewInstance(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	view[64] = 0xFF
	if &third.mem[0] == &view[0] || third.mem[64] != 0 {
		t.Fatal("a buffer with an escaped view was handed to the next instance")
	}
}

// TestFailedBirthRecyclesStorage: an instantiation that fails after it
// took storage — here the start function stores, then traps — gives the
// storage back the way Close does, so a tenant whose module cannot start
// costs one memory, not one per request, and what the failed start
// wrote does not reach the next birth.
func TestFailedBirthRecyclesStorage(t *testing.T) {
	good := elisionModule()
	good.Mems[0].Limits = wasm.Limits{Min: 101, Max: 128, HasMax: true} // the benchmark modules' 6.6 MB
	bad := elisionModule()
	bad.Mems = good.Mems
	bad.Funcs = append(bad.Funcs, wasm.Function{TypeIdx: bad.AddType(wasm.FuncType{}), Body: []wasm.Instr{
		wasm.I64Const(3 * dirtyPageSize), wasm.I64Const(0x5EC2E7), wasm.Store(wasm.OpI64Store, 0),
		wasm.Op(wasm.OpUnreachable), wasm.End()}})
	start := uint32(len(bad.Funcs) - 1)
	bad.Start = &start
	cfg := Config{Features: core.CageAll(), Sandboxes: core.NewSandboxAllocator(core.NewPolicy(core.CageAll()))}
	born := func() held {
		inst, err := NewInstance(good, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		return holdings(inst)
	}
	drainMemPool()
	want := born() // on never-used storage
	drainMemPool()

	recycled, fresh := BirthStats()
	for i := 0; i < 5; i++ {
		if _, err := NewInstance(bad, cfg); !IsTrap(err, TrapUnreachable) {
			t.Fatalf("instantiation %d: %v, want the start function's trap", i, err)
		}
	}
	if r, f := BirthStats(); f-fresh != 1 || r-recycled != 4 {
		t.Errorf("five failed births: %d on fresh storage, %d on recycled; want 1 and 4", f-fresh, r-recycled)
	}
	if len(memPool) != 1 {
		t.Fatalf("%d storages pooled after the failures, want 1", len(memPool))
	}
	got := born()
	if r, _ := BirthStats(); r-recycled != 5 {
		t.Error("the successful birth did not take the failed ones' storage")
	}
	if !bytes.Equal(got.mem, want.mem) {
		t.Error("memory of a birth on a failed birth's storage differs from a birth on never-used storage")
	}
	if !bytes.Equal(got.tags, want.tags) {
		t.Error("tags of a birth on a failed birth's storage differ from a birth on never-used storage")
	}
}
