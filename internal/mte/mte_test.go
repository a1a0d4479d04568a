package mte

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestNewMemoryStartsUntagged(t *testing.T) {
	m := NewMemory(1024, ModeSync)
	for a := uint64(0); a < 1024; a += GranuleSize {
		if m.TagAt(a) != 0 {
			t.Fatalf("granule %#x tagged %d at startup", a, m.TagAt(a))
		}
	}
}

func TestSetTagRangeAndCheck(t *testing.T) {
	m := NewMemory(256, ModeSync)
	if err := m.SetTagRange(32, 64, 5); err != nil {
		t.Fatal(err)
	}
	// Matching tag passes.
	if err := m.CheckAccess(40, 8, 5, false); err != nil {
		t.Errorf("matching access failed: %v", err)
	}
	// Wrong tag faults synchronously.
	err := m.CheckAccess(40, 8, 3, true)
	var tf *TagFault
	if !errors.As(err, &tf) {
		t.Fatalf("wrong-tag access: got %v, want TagFault", err)
	}
	if tf.PtrTag != 3 || tf.MemTag != 5 || !tf.Write {
		t.Errorf("fault details: %+v", tf)
	}
	// Untagged pointer to untagged memory passes.
	if err := m.CheckAccess(0, 16, 0, false); err != nil {
		t.Errorf("untagged access failed: %v", err)
	}
	// Untagged pointer to tagged memory faults (segment provenance).
	if err := m.CheckAccess(32, 8, 0, false); err == nil {
		t.Error("untagged pointer accessed tagged segment")
	}
}

func TestSetTagRangeAlignment(t *testing.T) {
	m := NewMemory(256, ModeSync)
	if err := m.SetTagRange(8, 16, 1); err == nil {
		t.Error("unaligned address accepted")
	}
	if err := m.SetTagRange(16, 8, 1); err == nil {
		t.Error("unaligned length accepted")
	}
	if err := m.SetTagRange(240, 32, 1); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	if err := m.SetTagRange(^uint64(0)&^15, 32, 1); err == nil {
		t.Error("wrapping range accepted")
	}
	// The fill behind SetTagRange is unchecked: a rejected range must not
	// have reached it.
	for g, tag := range m.Tags() {
		if tag != 0 {
			t.Fatalf("a rejected SetTagRange wrote granule %d", g)
		}
	}
}

func TestAccessSpanningTagBoundaryFaults(t *testing.T) {
	m := NewMemory(256, ModeSync)
	if err := m.SetTagRange(0, 16, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.SetTagRange(16, 16, 9); err != nil {
		t.Fatal(err)
	}
	// An 8-byte access straddling the two granules cannot match both.
	if err := m.CheckAccess(12, 8, 4, false); err == nil {
		t.Error("access spanning differently-tagged granules passed")
	}
}

func TestAsyncModeLatchesFault(t *testing.T) {
	m := NewMemory(128, ModeAsync)
	if err := m.SetTagRange(0, 32, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(0, 8, 2, true); err != nil {
		t.Fatalf("async mode returned sync fault: %v", err)
	}
	f := m.PendingFault()
	if f == nil {
		t.Fatal("async fault not latched")
	}
	if !f.Async {
		t.Error("latched fault not marked async")
	}
	if m.PendingFault() != nil {
		t.Error("PendingFault did not clear the latch")
	}
}

func TestAsymmetricMode(t *testing.T) {
	m := NewMemory(128, ModeAsymmetric)
	if err := m.SetTagRange(0, 32, 7); err != nil {
		t.Fatal(err)
	}
	// Reads are async.
	if err := m.CheckAccess(0, 8, 2, false); err != nil {
		t.Errorf("asymmetric read should be async, got %v", err)
	}
	if m.PendingFault() == nil {
		t.Error("asymmetric read fault not latched")
	}
	// Writes are sync.
	if err := m.CheckAccess(0, 8, 2, true); err == nil {
		t.Error("asymmetric write should fault synchronously")
	}
}

func TestDisabledModeChecksNothing(t *testing.T) {
	m := NewMemory(128, ModeDisabled)
	if err := m.SetTagRange(0, 32, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(0, 8, 2, true); err != nil {
		t.Errorf("disabled mode faulted: %v", err)
	}
	if m.PendingFault() != nil {
		t.Error("disabled mode latched a fault")
	}
}

func TestRandomTagRespectsExcludeMask(t *testing.T) {
	m := NewMemory(64, ModeSync)
	// Exclude tag 0 and tags 8..15 (the Cage sandbox-bit reservation).
	if err := m.SetExcludeMask(0xFF01); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tag := m.RandomTag()
		if tag == 0 || tag >= 8 {
			t.Fatalf("RandomTag produced excluded tag %d", tag)
		}
	}
}

func TestExcludeAllRejected(t *testing.T) {
	m := NewMemory(64, ModeSync)
	if err := m.SetExcludeMask(0xFFFF); err == nil {
		t.Error("exclude mask with no usable tags accepted")
	}
}

func TestNextTagSkipsExcluded(t *testing.T) {
	m := NewMemory(64, ModeSync)
	if err := m.SetExcludeMask(1 << 0); err != nil { // exclude zero tag
		t.Fatal(err)
	}
	if got := m.NextTag(15); got != 1 {
		t.Errorf("NextTag(15) = %d, want 1 (skipping excluded 0)", got)
	}
	if got := m.NextTag(3); got != 4 {
		t.Errorf("NextTag(3) = %d, want 4", got)
	}
}

func TestRandomTagUniformCoverage(t *testing.T) {
	m := NewMemory(64, ModeSync)
	m.Seed(42)
	seen := make(map[uint8]int)
	for i := 0; i < 4800; i++ {
		seen[m.RandomTag()]++
	}
	if len(seen) != 16 {
		t.Fatalf("RandomTag covered %d/16 tags", len(seen))
	}
	for tag, n := range seen {
		if n < 150 {
			t.Errorf("tag %d drawn only %d/4800 times", tag, n)
		}
	}
}

func TestGrowPreservesTags(t *testing.T) {
	m := NewMemory(64, ModeSync)
	if err := m.SetTagRange(0, 32, 9); err != nil {
		t.Fatal(err)
	}
	m.Grow(256)
	if m.Size() != 256 {
		t.Fatalf("Size after grow = %d", m.Size())
	}
	if m.TagAt(0) != 9 {
		t.Error("grow lost existing tags")
	}
	if m.TagAt(128) != 0 {
		t.Error("grown region not zero-tagged")
	}
}

func TestRangeTagProperty(t *testing.T) {
	// Property: after SetTagRange(addr, len, tag), RangeTag over any
	// sub-range reports (tag, true).
	f := func(startG, lenG uint8, tag uint8) bool {
		m := NewMemory(4096, ModeSync)
		start := uint64(startG%64) * GranuleSize
		length := (uint64(lenG%64) + 1) * GranuleSize
		if start+length > 4096 {
			length = 4096 - start
		}
		if length == 0 {
			return true
		}
		if err := m.SetTagRange(start, length, tag%16); err != nil {
			return false
		}
		got, ok := m.RangeTag(start, length)
		return ok && got == tag%16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTagStoreOpProperties(t *testing.T) {
	// Table 4 invariants.
	cases := []struct {
		op       TagStoreOp
		granules int
		zeroes   bool
	}{
		{OpSTG, 1, false},
		{OpST2G, 2, false},
		{OpSTZG, 1, true},
		{OpST2ZG, 2, true},
		{OpSTGP, 1, true},
	}
	for _, c := range cases {
		if c.op.Granules() != c.granules {
			t.Errorf("%v.Granules() = %d, want %d", c.op, c.op.Granules(), c.granules)
		}
		if c.op.ZeroesData() != c.zeroes {
			t.Errorf("%v.ZeroesData() = %v, want %v", c.op, c.op.ZeroesData(), c.zeroes)
		}
	}
}

// TestRestoreTagRange: the ranged restore rewrites exactly the granules
// covering the byte range from the leading tags of src (a snapshot keeps
// the tags of its written runs only, so src starts at the range, not at
// granule 0), remaps from→to, clips at the end of the tag array, and
// writes through adopted storage in place.
func TestRestoreTagRange(t *testing.T) {
	const size = 4 * 4096
	const page = 4096 / GranuleSize
	img := NewMemory(size, ModeSync)
	if err := img.SetTagRange(0, size, 3); err != nil {
		t.Fatal(err)
	}
	if err := img.SetTagRange(4096+32, 64, 9); err != nil {
		t.Fatal(err)
	}
	src := bytes.Clone(img.Tags())

	view := make([]uint8, len(src))
	FillTags(view, 0xF)
	m := NewMemory(0, ModeSync)
	m.AdoptTags(view, size)
	m.RestoreTagRange(src[page:], 4096, 4096, 3, 5) // page 1 only, from page 1's tags
	for a := uint64(0); a < size; a += GranuleSize {
		want := uint8(0xF)
		switch {
		case a >= 4096+32 && a < 4096+96:
			want = 9
		case a >= 4096 && a < 8192:
			want = 5 // remapped 3→5
		}
		if got := m.TagAt(a); got != want {
			t.Fatalf("granule %#x: tag %#x, want %#x", a, got, want)
		}
	}
	if view[page] != 5 {
		t.Error("ranged restore did not write through the adopted storage")
	}
	m.RestoreTagRange(src[3*page:], 3*4096, 2*4096, 3, 3) // runs past the end: clipped
	if got := m.TagAt(size - GranuleSize); got != 3 {
		t.Errorf("last granule: tag %#x, want 3", got)
	}
}

// TestFillTagsEqualsByteLoop: the row-copy fill writes what a granule
// loop would — every granule of the range, none outside it, the tag cut
// to its four bits — for every (offset, length) over three rows of tags.
func TestFillTagsEqualsByteLoop(t *testing.T) {
	const n = 3 * 4096 / GranuleSize
	got, want := make([]uint8, n), make([]uint8, n)
	for off := 0; off <= n; off++ {
		for length := 0; off+length <= n; length++ {
			clear(got)
			clear(want)
			FillTags(got[off:off+length], 0x1B)
			for g := off; g < off+length; g++ {
				want[g] = 0xB
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("FillTags over [%d, +%d) differs from the granule loop", off, length)
			}
		}
	}
}

// TestAllowsEqualsCheckAccess holds the inlinable fast predicate to the
// check it fronts: Allows is true exactly when CheckAccess returns nil
// and latches nothing — over every size it is specified for, offsets on
// both sides of a tag boundary, matching and mismatching pointer tags,
// every mode, reads and writes, and ranges that end inside, on and past
// the covered size.
func TestAllowsEqualsCheckAccess(t *testing.T) {
	// Granules below boundary carry tag 3, granules from it on tag 9.
	const boundary = 64
	for _, size := range []uint64{96, 100, 112} { // last granule whole, partial, one more
		for _, mode := range []Mode{ModeDisabled, ModeSync, ModeAsync, ModeAsymmetric} {
			m := NewMemory(size, mode)
			FillTags(m.Tags()[:boundary/GranuleSize], 3)
			FillTags(m.Tags()[boundary/GranuleSize:], 9)
			for _, base := range []uint64{boundary - GranuleSize, size - GranuleSize, ^uint64(0) - 40} {
				for off := uint64(0); off < 32; off++ {
					for length := uint64(1); length <= GranuleSize; length++ {
						for _, tag := range []uint8{0, 3, 9} {
							for _, write := range []bool{false, true} {
								addr := base + off
								got := m.Allows(addr, length, tag)
								err := m.CheckAccess(addr, length, tag, write)
								want := err == nil && m.PendingFault() == nil
								if got != want {
									t.Fatalf("size %d mode %v: Allows(%#x, %d, %d) = %v, CheckAccess(write=%v) allows = %v (err %v)",
										size, mode, addr, length, tag, got, write, want, err)
								}
							}
						}
					}
				}
			}
		}
	}
}
