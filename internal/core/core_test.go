package core

import (
	"errors"
	"testing"
	"testing/quick"

	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/ptrlayout"
)

func TestPolicyExternalOnly(t *testing.T) {
	p := NewPolicy(Features{Sandbox: true, MTEMode: mte.ModeSync})
	if p.MaxSandboxes != 15 {
		t.Errorf("MaxSandboxes = %d, want 15", p.MaxSandboxes)
	}
	// Fig. 13a: bits 56-59 masked from indices.
	if p.MaskIndex(0xF<<56|0x1234) != 0x1234 {
		t.Error("external-only mask must clear all tag bits")
	}
}

func TestPolicyInternalOnly(t *testing.T) {
	p := NewPolicy(Features{MemSafety: true, MTEMode: mte.ModeSync})
	if p.UsableTags() != 15 {
		t.Errorf("UsableTags = %d, want 15", p.UsableTags())
	}
	if got := p.CollisionProbability(); got < 0.066 || got > 0.067 {
		t.Errorf("collision probability = %f, want 1/15", got)
	}
}

func TestPolicyCombined(t *testing.T) {
	// Paper §6.4: 3 bits internal + 1 bit sandbox; §7.4: collision 1/7.
	p := NewPolicy(CageAll())
	if p.UsableTags() != 7 {
		t.Errorf("UsableTags = %d, want 7", p.UsableTags())
	}
	if got := p.CollisionProbability(); got < 0.142 || got > 0.143 {
		t.Errorf("collision probability = %f, want 1/7", got)
	}
	if p.MaxSandboxes != 1 {
		t.Errorf("combined mode MaxSandboxes = %d, want 1", p.MaxSandboxes)
	}
	// Fig. 13b: only bit 56 masked.
	idx := uint64(0xF<<56 | 0x42)
	if p.MaskIndex(idx) != uint64(0xE<<56|0x42) {
		t.Errorf("combined mask = %#x", p.MaskIndex(idx))
	}
}

func TestSandboxAllocatorExhaustion(t *testing.T) {
	a := NewSandboxAllocator(NewPolicy(Features{Sandbox: true, MTEMode: mte.ModeSync}))
	seen := map[uint8]bool{}
	for i := 0; i < 15; i++ {
		tag, err := a.Acquire()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if tag == RuntimeTag {
			t.Fatal("allocator handed out the runtime tag")
		}
		if seen[tag] {
			t.Fatalf("tag %d handed out twice", tag)
		}
		seen[tag] = true
	}
	if _, err := a.Acquire(); !errors.Is(err, ErrSandboxesExhausted) {
		t.Errorf("16th acquire: %v", err)
	}
	// Releasing recycles.
	a.Release(3)
	if tag, err := a.Acquire(); err != nil || tag != 3 {
		t.Errorf("recycled acquire = %d, %v", tag, err)
	}
}

func newSegs(t *testing.T, f Features, size uint64) (*Segments, []byte) {
	t.Helper()
	buf := make([]byte, size)
	tags := mte.NewMemory(size, mte.ModeSync)
	tags.Seed(99)
	pol := NewPolicy(f)
	if err := tags.SetExcludeMask(pol.IRGExclude); err != nil {
		t.Fatal(err)
	}
	return NewSegments(tags, pol, func() []byte { return buf }), buf
}

func TestSegmentLifecycle(t *testing.T) {
	segs, buf := newSegs(t, Features{MemSafety: true, MTEMode: mte.ModeSync}, 4096)
	buf[64] = 0xFF
	tagged, err := segs.New(64, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Tag(tagged) == 0 {
		t.Error("segment.new produced tag 0 (reserved)")
	}
	if buf[64] != 0 {
		t.Error("segment.new did not zero memory")
	}
	if err := segs.Tags().CheckAccess(64, 8, ptrlayout.Tag(tagged), true); err != nil {
		t.Errorf("owner access rejected: %v", err)
	}
	if err := segs.Free(tagged, 128, 0); err != nil {
		t.Fatal(err)
	}
	if err := segs.Tags().CheckAccess(64, 8, ptrlayout.Tag(tagged), false); err == nil {
		t.Error("use-after-free not caught")
	}
	if err := segs.Free(tagged, 128, 0); err == nil {
		t.Error("double free not caught")
	}
}

func TestSegmentOffsetFolding(t *testing.T) {
	// The static offset o lets compilers fold constant offsets (Fig. 7).
	segs, _ := newSegs(t, Features{MemSafety: true, MTEMode: mte.ModeSync}, 4096)
	tagged, err := segs.New(0, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Address(tagged) != 256 {
		t.Errorf("offset-folded address = %#x, want 256", ptrlayout.Address(tagged))
	}
}

func TestSegmentAlignmentAndBounds(t *testing.T) {
	segs, _ := newSegs(t, Features{MemSafety: true, MTEMode: mte.ModeSync}, 4096)
	if _, err := segs.New(8, 32, 0); err == nil {
		t.Error("unaligned address accepted")
	}
	if _, err := segs.New(0, 24, 0); err == nil {
		t.Error("unaligned length accepted")
	}
	if _, err := segs.New(4096-16, 64, 0); err == nil {
		t.Error("out-of-bounds segment accepted")
	}
}

func TestFreeTagDiffersProperty(t *testing.T) {
	// Property: after free, the region's tag differs from the owner's.
	f := func(slot uint8) bool {
		segs, _ := newSegs(t, Features{MemSafety: true, MTEMode: mte.ModeSync}, 8192)
		addr := uint64(slot%64) * 16 * 2
		tagged, err := segs.New(addr, 32, 0)
		if err != nil {
			return false
		}
		if err := segs.Free(tagged, 32, 0); err != nil {
			return false
		}
		newTag, ok := segs.Tags().RangeTag(ptrlayout.Address(tagged), 32)
		return ok && newTag != ptrlayout.Tag(tagged)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombinedModeTagsCarrySandboxBit(t *testing.T) {
	segs, _ := newSegs(t, CageAll(), 4096)
	for i := 0; i < 50; i++ {
		tagged, err := segs.New(uint64(i)*64, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		tag := ptrlayout.Tag(tagged)
		if tag&1 == 0 {
			t.Fatalf("combined-mode allocation tag %#x lacks the sandbox bit", tag)
		}
		if tag == 1 {
			t.Fatalf("combined-mode allocation used the guard tag")
		}
	}
}

func TestInstanceKeysSignAuth(t *testing.T) {
	k1 := NewInstanceKeys(pacKey(1), 111)
	k2 := NewInstanceKeys(pacKey(1), 222) // same process key, other instance
	signed := k1.Sign(0x8650)
	if _, err := k2.Auth(signed); err == nil {
		t.Error("cross-instance modifier reuse authenticated")
	}
	got, err := k1.Auth(signed)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x8650 {
		t.Errorf("auth = %#x", got)
	}
}

// pacKey derives a deterministic process key for tests.
func pacKey(seed uint64) pac.Key { return pac.KeyFromSeed(seed) }
