package exec

import (
	"bytes"
	"testing"

	"cage/internal/core"
	"cage/internal/mte"
	"cage/internal/wasm"
)

func resetTestModule() *wasm.Module {
	return &wasm.Module{
		Mems:  []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 4, HasMax: true}, Memory64: true}},
		Datas: []wasm.DataSegment{{Offset: 8, Bytes: []byte("cage")}},
	}
}

// TestResetRestoresMemoryDataAndHostReserve covers both reset paths: the
// in-place zeroing path (no growth) and the shrink-after-grow path, and
// in both checks that the host-reserve pattern is restored even when a
// previous lifetime corrupted it.
func TestResetRestoresMemoryDataAndHostReserve(t *testing.T) {
	inst, err := NewInstance(resetTestModule(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkFresh := func(when string) {
		t.Helper()
		if got := inst.MemorySize(); got != wasm.PageSize {
			t.Fatalf("%s: memory size %d, want %d", when, got, wasm.PageSize)
		}
		if inst.Memory()[0] != 0 {
			t.Errorf("%s: guest memory not zeroed", when)
		}
		if string(inst.Memory()[8:12]) != "cage" {
			t.Errorf("%s: data segment not replayed", when)
		}
		for i, b := range inst.HostRegion() {
			if b != 0x5A {
				t.Errorf("%s: host reserve byte %d = %#x, want 0x5A", when, i, b)
				break
			}
		}
	}

	// Lifetime 1: corrupt guest memory and the host reserve, no growth.
	inst.Memory()[0] = 0xFF
	copy(inst.Memory()[8:], "XXXX")
	inst.HostRegion()[0] = 0x00
	if err := inst.Reset(2); err != nil {
		t.Fatal(err)
	}
	checkFresh("in-place reset")

	// Lifetime 2: grow memory, corrupt again; reset must shrink back.
	if old := inst.GrowMemory(2); old == ^uint64(0) {
		t.Fatal("grow failed")
	}
	inst.HostRegion()[1] = 0x77
	if err := inst.Reset(3); err != nil {
		t.Fatal(err)
	}
	checkFresh("shrink reset")
}

// TestResetClearsTagsAndLatchedFaults checks that MTE state from a
// previous lifetime — segment tags and latched asynchronous faults —
// does not survive a reset.
func TestResetClearsTagsAndLatchedFaults(t *testing.T) {
	inst, err := NewInstance(resetTestModule(), Config{
		Features: core.Features{MemSafety: true, MTEMode: mte.ModeAsync},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := inst.HostSegmentNew(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Tags().TagAt(64) == 0 {
		t.Fatal("segment.new left granule untagged")
	}
	// Latch an async fault by checking with the wrong tag.
	if err := inst.Tags().CheckAccess(64, 8, 0, false); err != nil {
		t.Fatalf("async mode should latch, not fault: %v", err)
	}
	if err := inst.Reset(9); err != nil {
		t.Fatal(err)
	}
	if got := inst.Tags().TagAt(64); got != 0 {
		t.Errorf("granule tag %#x survived reset, want 0", got)
	}
	if f := inst.Tags().PendingFault(); f != nil {
		t.Errorf("latched fault survived reset: %v", f)
	}
	_ = tagged
}

// TestResetAfterGrowShrinksTagStorage: a reset after a grown lifetime
// takes the memory back to its initial size, and the tag storage must
// follow it — memory and tag array travel together — or Tags().Size()
// stays at the grown size and a capture taken afterwards carries
// granules (the grown lifetime's segment tags among them) past the end
// of its image. A fork of such a capture must be a fresh instance, byte
// for byte and granule for granule.
func TestResetAfterGrowShrinksTagStorage(t *testing.T) {
	cfg := Config{Features: core.Features{MemSafety: true, MTEMode: mte.ModeSync}, Seed: 1}
	m := resetTestModule()
	inst, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if old := inst.GrowMemory(2); old == ^uint64(0) {
		t.Fatal("grow failed")
	}
	if _, err := inst.HostSegmentNew(2*wasm.PageSize+64, 32); err != nil { // in the grown part
		t.Fatal(err)
	}
	if err := inst.ResetState(2); err != nil {
		t.Fatal(err)
	}
	if got, want := inst.Tags().Size(), inst.MemorySize()+inst.hostReserve; got != want {
		t.Fatalf("after a shrinking reset the tag storage covers %d bytes, the memory has %d", got, want)
	}
	snap, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	fresh, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	cfg.Snapshot = snap
	fork, err := NewInstance(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if !bytes.Equal(fork.mem, fresh.mem) {
		t.Error("memory of a fork of the post-reset capture differs from a fresh instance's")
	}
	if got, want := fork.Tags().Size(), fresh.Tags().Size(); got != want {
		t.Fatalf("fork's tag storage covers %d bytes, a fresh instance's %d", got, want)
	}
	for a := uint64(0); a < fresh.Tags().Size(); a += mte.GranuleSize {
		if got, want := fork.Tags().TagAt(a), fresh.Tags().TagAt(a); got != want {
			t.Fatalf("granule at %#x: fork has tag %#x, a fresh instance %#x", a, got, want)
		}
	}
}

// TestCloseReleasesTagAndRejectsReset checks teardown: Close returns
// the sandbox tag and a closed instance refuses recycling.
func TestCloseReleasesTagAndRejectsReset(t *testing.T) {
	pol := core.NewPolicy(core.Features{Sandbox: true, MTEMode: mte.ModeSync})
	sandboxes := core.NewSandboxAllocator(pol)
	inst, err := NewInstance(resetTestModule(), Config{
		Features:  core.Features{Sandbox: true, MTEMode: mte.ModeSync},
		Seed:      1,
		Sandboxes: sandboxes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sandboxes.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", sandboxes.InUse())
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if sandboxes.InUse() != 0 {
		t.Errorf("InUse after Close = %d, want 0", sandboxes.InUse())
	}
	if err := inst.Close(); err != nil {
		t.Errorf("second Close: %v, want idempotent nil", err)
	}
	if err := inst.Reset(2); err == nil {
		t.Error("Reset of closed instance succeeded")
	}
}
