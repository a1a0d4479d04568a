// Package mte simulates the Arm Memory Tagging Extension (MTE) used by
// Cage as its memory-safety building block (paper §2.3).
//
// MTE is a lock-and-key mechanism: memory is tagged in 16-byte granules
// with one of 16 4-bit tags, pointers carry a tag in bits 59..56, and an
// access is only allowed when the pointer tag matches the tag of every
// granule it touches. The simulation reproduces the architectural
// behaviour relevant to Cage:
//
//   - tag storage at GranuleSize granularity over a linear memory
//   - the four check modes (disabled, synchronous, asynchronous,
//     asymmetric) with the async fault flag polled at "context switch"
//   - random tag generation with a tag-exclusion mask (the prctl
//     PR_MTE_TAG_MASK analog Cage uses to reserve tags, paper §6.4)
//   - tag arithmetic and tag load/store operations mirroring the
//     irg/addg/ldg/stg instruction family
package mte

import "fmt"

const (
	// GranuleSize is the MTE tagging granularity in bytes.
	GranuleSize = 16
	// TagBits is the width of an allocation tag.
	TagBits = 4
	// NumTags is the number of distinct tags.
	NumTags = 1 << TagBits
)

// Mode selects how tag-check faults are reported (paper §2.3).
type Mode int

const (
	// ModeDisabled performs no tag checks.
	ModeDisabled Mode = iota
	// ModeSync faults immediately, before the access takes effect.
	ModeSync
	// ModeAsync sets a cumulative fault flag checked at the next
	// context switch; the access itself proceeds.
	ModeAsync
	// ModeAsymmetric checks reads asynchronously and writes synchronously.
	ModeAsymmetric
)

// String returns the conventional lowercase mode name.
func (m Mode) String() string {
	switch m {
	case ModeDisabled:
		return "disabled"
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeAsymmetric:
		return "asymmetric"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TagFault describes a tag-check failure.
type TagFault struct {
	Addr   uint64 // untagged faulting address (offset into the memory)
	PtrTag uint8  // tag carried by the pointer
	MemTag uint8  // tag stored for the granule
	Write  bool   // true for stores
	Async  bool   // true if reported via the async flag
}

// Error implements the error interface.
func (f *TagFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	how := "synchronous"
	if f.Async {
		how = "asynchronous"
	}
	return fmt.Sprintf("mte: %s tag fault on %s at 0x%x: pointer tag %#x, memory tag %#x",
		how, kind, f.Addr, f.PtrTag, f.MemTag)
}

// Memory is the tag storage for one linear memory region. Tags live in a
// separate array mirroring the hardware's dedicated tag PA space; the data
// bytes themselves are owned by the caller.
type Memory struct {
	mode    Mode
	tags    []uint8 // one tag per granule
	size    uint64  // bytes covered
	pending *TagFault
	exclude uint16 // bit i set => tag i never produced by RandomTag
	rng     uint64 // xorshift64 state, deterministic and seedable
}

// NewMemory creates tag storage covering size bytes (rounded up to a whole
// number of granules), with all granules tagged zero and checks in mode.
func NewMemory(size uint64, mode Mode) *Memory {
	return &Memory{
		mode: mode,
		tags: make([]uint8, granules(size)),
		size: size,
		rng:  0x9E3779B97F4A7C15,
	}
}

func granules(size uint64) uint64 {
	return (size + GranuleSize - 1) / GranuleSize
}

// Size returns the number of data bytes covered by the tag storage.
func (m *Memory) Size() uint64 { return m.size }

// Mode returns the current check mode.
func (m *Memory) Mode() Mode { return m.mode }

// Seed reseeds the deterministic random tag generator.
func (m *Memory) Seed(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	m.rng = seed
}

// SetExcludeMask configures which tags RandomTag may never return (the
// GCR_EL1.Exclude / prctl analog). At least one tag must remain usable.
func (m *Memory) SetExcludeMask(mask uint16) error {
	if mask == 0xFFFF {
		return fmt.Errorf("mte: exclude mask %#x leaves no usable tags", mask)
	}
	m.exclude = mask
	return nil
}

// Grow extends the covered region to newSize bytes; new granules are
// tagged zero. The grown tags live in a new array, so storage handed in
// through AdoptTags is left behind, not written past. Shrinking is not
// supported and is ignored.
func (m *Memory) Grow(newSize uint64) {
	if newSize <= m.size {
		return
	}
	grown := make([]uint8, granules(newSize))
	copy(grown, m.tags)
	m.tags = grown
	m.size = newSize
}

func (m *Memory) next() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}

// RandomTag returns a uniformly random non-excluded tag (irg).
func (m *Memory) RandomTag() uint8 {
	return m.RandomTagExcluding(0)
}

// RandomTagExcluding returns a uniformly random tag outside both the
// global exclude mask and extra — irg's Xm exclusion operand, which
// lets a caller rule out specific tags per draw (Cage's allocator
// excludes a reused block's current and previous-owner tags so a stale
// pointer from the immediately preceding lifetime can never draw a
// colliding tag). An extra mask that would leave no usable tag is
// ignored in favour of the global mask alone. Tags come from the
// xorshift state's high bits; the low bits are too weakly mixed to cut
// a 4-bit tag from.
func (m *Memory) RandomTagExcluding(extra uint16) uint8 {
	mask := m.exclude | extra
	if mask == 0xFFFF {
		mask = m.exclude
	}
	for {
		t := uint8(m.next() >> (64 - TagBits))
		if mask&(1<<t) == 0 {
			return t
		}
	}
}

// NextTag returns the tag after t, wrapping modulo 16 and skipping
// excluded tags. Cage uses this for successive stack allocations
// (paper §4.2: "subsequent stack allocations use this tag and increment
// it by one ... the tag wraps around on overflow").
func (m *Memory) NextTag(t uint8) uint8 {
	for i := 0; i < NumTags; i++ {
		t = (t + 1) & (NumTags - 1)
		if m.exclude&(1<<t) == 0 {
			return t
		}
	}
	return t
}

// PrevTag returns the tag before t, wrapping modulo 16 and skipping
// excluded tags — NextTag's inverse. Cage's allocator uses it to
// recover a freed block's previous-owner tag from the free tag
// segment.free stamped (NextTag of the owner), so reallocation can
// exclude it.
func (m *Memory) PrevTag(t uint8) uint8 {
	for i := 0; i < NumTags; i++ {
		t = (t - 1) & (NumTags - 1)
		if m.exclude&(1<<t) == 0 {
			return t
		}
	}
	return t
}

// TagAt returns the tag of the granule containing addr (ldg).
func (m *Memory) TagAt(addr uint64) uint8 {
	g := addr / GranuleSize
	if g >= uint64(len(m.tags)) {
		return 0
	}
	return m.tags[g]
}

// SetTagRange assigns tag to every granule in [addr, addr+length)
// (an stg loop). addr and length must be granule-aligned and in bounds.
func (m *Memory) SetTagRange(addr, length uint64, tag uint8) error {
	if addr%GranuleSize != 0 || length%GranuleSize != 0 {
		return fmt.Errorf("mte: unaligned tag range [%#x, +%#x)", addr, length)
	}
	if addr+length < addr || addr+length > m.size {
		return fmt.Errorf("mte: tag range [%#x, +%#x) out of bounds (size %#x)", addr, length, m.size)
	}
	first := addr / GranuleSize
	FillTags(m.tags[first:first+length/GranuleSize], tag)
	return nil
}

// FillTags sets every granule of tags to tag by copying from a row of
// 256 granules (one 4 KiB page of data) that carry it, so a fill of any
// size — one dirty page's tags at a checkin, a whole memory's at a birth
// on new storage — runs at memmove speed. It is the one fill behind
// SetTagRange and the tag layout of an instance's storage.
func FillTags(tags []uint8, tag uint8) {
	for row := tagRows[tag&(NumTags-1)][:]; len(tags) > 0; {
		tags = tags[copy(tags, row):]
	}
}

// tagRows[t] is a page's worth of granules tagged t.
var tagRows = func() (rows [NumTags][256]uint8) {
	for t := range rows {
		for g := range rows[t] {
			rows[t][g] = uint8(t)
		}
	}
	return rows
}()

// RangeTag returns the common tag of all granules in [addr, addr+length),
// or ok=false when the range spans granules with differing tags or is out
// of bounds. This is the s_tag(i, addr, len) accessor of paper Fig. 11.
func (m *Memory) RangeTag(addr, length uint64) (tag uint8, ok bool) {
	if length == 0 {
		length = 1
	}
	if addr+length < addr || addr+length > m.size {
		return 0, false
	}
	first := addr / GranuleSize
	last := (addr + length - 1) / GranuleSize
	tag = m.tags[first]
	for g := first + 1; g <= last; g++ {
		if m.tags[g] != tag {
			return 0, false
		}
	}
	return tag, true
}

// Allows is CheckAccess's fast path as an inlinable predicate: for an
// access of 1 to GranuleSize bytes it is true exactly when CheckAccess
// would return nil without latching a fault — checks are disabled, or
// the range is in bounds and its first and last granule (an access that
// short touches no third) both carry ptrTag. On false, and for longer
// accesses, the caller asks CheckAccess, which builds or latches the
// fault as the mode demands.
func (m *Memory) Allows(addr, length uint64, ptrTag uint8) bool {
	if m.mode == ModeDisabled {
		return true
	}
	end := addr + length
	if length-1 >= GranuleSize || end < addr || end > m.size {
		return false
	}
	return m.tags[addr/GranuleSize] == ptrTag && m.tags[(end-1)/GranuleSize] == ptrTag
}

// Granules returns the tags of the granules that lie wholly inside the
// covered size, one per granule: Allows's tag lookup for a caller that
// has to open-code it (the executor's dispatch loop, into which no
// function of Allows's size inlines). An access of 1 to GranuleSize
// bytes whose first and last granule are both in the result and both
// carry the pointer's tag is one Allows accepts, whatever the mode.
func (m *Memory) Granules() []uint8 { return m.tags[:m.size/GranuleSize] }

// CheckAccess performs the tag check for an access of length bytes at the
// untagged address addr using a pointer carrying ptrTag. The return value
// follows the configured mode: sync faults return a *TagFault, async
// faults are latched for PendingFault and return nil.
func (m *Memory) CheckAccess(addr uint64, length uint64, ptrTag uint8, write bool) error {
	if m.mode == ModeDisabled {
		return nil
	}
	memTag, uniform := m.RangeTag(addr, length)
	if uniform && memTag == ptrTag {
		return nil
	}
	if !uniform {
		// Mixed-tag range: report the first mismatching granule.
		memTag = m.TagAt(addr)
		if memTag == ptrTag {
			// Find the granule that differs.
			for a := addr &^ (GranuleSize - 1); a < addr+length; a += GranuleSize {
				if t := m.TagAt(a); t != ptrTag {
					addr, memTag = a, t
					break
				}
			}
		}
	}
	fault := &TagFault{Addr: addr, PtrTag: ptrTag, MemTag: memTag, Write: write}
	sync := m.mode == ModeSync || (m.mode == ModeAsymmetric && write)
	if sync {
		return fault
	}
	fault.Async = true
	if m.pending == nil {
		m.pending = fault
	}
	return nil
}

// PendingFault returns and clears the latched asynchronous fault, if any.
// Callers invoke this at context-switch points (e.g. after a host call or
// when an instance yields), mirroring the hardware's TFSR check.
func (m *Memory) PendingFault() *TagFault {
	f := m.pending
	m.pending = nil
	return f
}

// Snapshot/restore accessors: an instance snapshot captures the tag
// state as the tags of its written pages plus the deterministic RNG
// state, and restore puts them back without re-running the stg loops
// that created them (the §7.2 cost the snapshot exists to avoid).

// Tags returns the live tag array, one byte per granule. The instance
// layer owns the array (see AdoptTags): it captures written pages' tags
// from it, refills page runs of it with FillTags, and hands it on when
// the instance retires.
func (m *Memory) Tags() []uint8 { return m.tags }

// RandState returns the deterministic tag generator's state, so a
// restored instance draws the same tag sequence the snapshotted one
// would have.
func (m *Memory) RandState() uint64 { return m.rng }

// SetRandState restores the tag generator state captured by RandState.
func (m *Memory) SetRandState(s uint64) {
	if s == 0 {
		s = 1
	}
	m.rng = s
}

// RestoreTagRange overwrites, in place, the tags of the granules
// covering data bytes [addr, addr+length) with the leading tags of src —
// the tags a snapshot stored for exactly that range — remapping granules
// tagged from to the tag to: under per-instance tagging the sandbox
// identity of the restoring instance differs from the snapshotted one's.
// A from == to remap is a plain copy. A snapshot stores tags for its
// written page runs only, so this is what an install and a dirty-page
// restore call per run; it writes through adopted storage (the view is
// the instance's live tag array).
func (m *Memory) RestoreTagRange(src []uint8, addr, length uint64, from, to uint8) {
	lo, hi := addr/GranuleSize, min(granules(addr+length), uint64(len(m.tags)))
	dst := m.tags[lo:hi]
	copy(dst, src)
	if from != to {
		for i, t := range dst {
			if t == from {
				dst[i] = to
			}
		}
	}
}

// AdoptTags replaces the tag storage with tags (covering size data
// bytes) without copying, and clears any latched fault: the instance
// layer owns tag arrays — a retired instance's array or a new one — and
// hands the current one in. The caller guarantees tags stays valid until the next
// AdoptTags or Grow replaces it.
func (m *Memory) AdoptTags(tags []uint8, size uint64) {
	m.tags = tags
	m.size = size
	m.pending = nil
}
