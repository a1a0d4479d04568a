package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/ptrlayout"
)

// Features selects which Cage components are active for an instance
// (paper Table 3 configurations).
type Features struct {
	// MemSafety enables internal memory safety: segments and tag-checked
	// loads/stores.
	MemSafety bool
	// Sandbox enables MTE-based external sandboxing, replacing explicit
	// software bounds checks.
	Sandbox bool
	// PtrAuth enables i64.pointer_sign / i64.pointer_auth.
	PtrAuth bool
	// MTEMode is the tag-check mode; Cage uses synchronous checks so
	// violations trap before their effects are observable (paper §6.3).
	MTEMode mte.Mode
	// SpectreHarden models Swivel-style speculation mitigations in the
	// timing model: the lowering inserts fence barriers before indirect
	// branches and returns, and the executor charges a BTB flush at
	// every sandbox transition. Semantics are unchanged — only the
	// event/fuel accounting differs — so it does not participate in tag
	// policy derivation (NewPolicy ignores it).
	SpectreHarden bool
}

// CageAll returns the full Cage configuration (all features, sync MTE).
func CageAll() Features {
	return Features{MemSafety: true, Sandbox: true, PtrAuth: true, MTEMode: mte.ModeSync}
}

// RuntimeTag is the tag reserved for runtime (non-guest) memory.
const RuntimeTag uint8 = 0

// Policy is the tag-budget decision derived from a feature set
// (paper §6.4):
//
//   - external only: the runtime keeps tag 0, each sandbox owns one of
//     the 15 remaining tags, and untrusted indices have the whole tag
//     nibble (bits 59..56) masked off before address computation.
//   - internal only: tag 0 is reserved for guard slots and untagged
//     segments; tags 1..15 are the allocation pool (collision 1/15).
//   - combined: bit 56 (tag LSB) is the sandbox bit; the upper three tag
//     bits are the allocation pool within the sandbox. One tag of the 8
//     is reserved for guards, leaving 7 (collision 1/7), and only a
//     single sandbox fits alongside the runtime.
type Policy struct {
	Features Features
	// IRGExclude is the tag-exclusion mask for random tag generation.
	IRGExclude uint16
	// IndexMask has a 1 in every pointer bit that untrusted indices are
	// allowed to contribute (Fig. 13: tag bits owned by the runtime are
	// cleared from the index before adding the heap base).
	IndexMask uint64
	// MaxSandboxes is how many instances can coexist in one process.
	MaxSandboxes int
	// SandboxBit is the tag bit carrying sandbox identity in combined
	// mode (0 when unused).
	SandboxBit uint8
}

// NewPolicy derives the tag policy for a feature set.
func NewPolicy(f Features) Policy {
	p := Policy{Features: f, IndexMask: ^uint64(0), MaxSandboxes: 1 << 30}
	switch {
	case f.MemSafety && f.Sandbox:
		// Guest allocation tags: odd tags (sandbox bit set), excluding
		// the sandbox's own "untagged" representative (tag 1).
		p.IRGExclude = irgExcludeCombined
		p.IndexMask = ^(uint64(1) << ptrlayout.MTETagShift) // mask bit 56
		p.MaxSandboxes = 1
		p.SandboxBit = 1
	case f.Sandbox:
		p.IRGExclude = 1 << RuntimeTag
		p.IndexMask = ^ptrlayout.MTETagMask // mask bits 56..59
		p.MaxSandboxes = mte.NumTags - 1    // 15 sandboxes + runtime
	case f.MemSafety:
		p.IRGExclude = 1 << RuntimeTag // zero tag reserved for guards
		p.MaxSandboxes = 1 << 30       // sandboxing not tag-limited
	}
	return p
}

// irgExcludeCombined excludes even tags (runtime side of the sandbox
// bit) plus tag 1, the sandbox's guard/untagged representative.
const irgExcludeCombined uint16 = 0x5555 | 1<<1

// GuardTag returns the tag treated as "untagged" for guest segments:
// tag 0 normally, tag 1 when the sandbox bit is in use.
func (p Policy) GuardTag() uint8 {
	if p.SandboxBit != 0 {
		return 1
	}
	return RuntimeTag
}

// CollisionProbability is the chance two adjacent instrumented
// allocations draw the same tag (paper §7.4: 1/15, rising to 1/7 when
// MTE also carries the sandbox).
func (p Policy) CollisionProbability() float64 {
	n := p.UsableTags()
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// UsableTags counts the allocation tags available to the guest.
func (p Policy) UsableTags() int {
	n := 0
	for t := 0; t < mte.NumTags; t++ {
		if p.IRGExclude&(1<<t) == 0 {
			n++
		}
	}
	return n
}

// MaskIndex applies the Fig. 13 index mask so untrusted indices cannot
// smuggle tag bits into the effective address.
func (p Policy) MaskIndex(index uint64) uint64 { return index & p.IndexMask }

// SandboxAllocator hands out sandbox tags to instances (paper §6.4:
// "the runtime assigns a tag to each instance on module instantiation").
//
// The allocator is safe for concurrent use: an engine that instantiates
// and retires instances from many goroutines shares one allocator per
// process, so Acquire/Release serialize on an internal mutex.
type SandboxAllocator struct {
	mu    sync.Mutex
	pol   Policy
	refs  [mte.NumTags]int // live instances per tag (tag reuse may stack)
	count int
	// reuse implements the paper's §6.4 future-work extension: tags may
	// be reused across sandboxes whose linear memories occupy disjoint,
	// guard-separated address ranges, lifting the 15-per-process limit.
	reuse   bool
	nextRot uint8
	// freed broadcasts tag releases to blocked acquirers: it is closed
	// (and replaced lazily) on every Release that frees budget, the
	// channel-shaped condition variable AcquireContext waits on.
	freed chan struct{}
}

// EnableTagReuse lifts the sandbox limit by cycling tags across
// instances. Safe only when each instance's reachable address range is
// disjoint from every other instance with the same tag and separated by
// guard pages — which holds in this runtime because every instance owns
// a private linear-memory mapping (the combination of guard pages and
// memory tagging the paper's §6.4 suggests).
func (a *SandboxAllocator) EnableTagReuse() {
	a.mu.Lock()
	a.reuse = true
	a.mu.Unlock()
}

// ErrSandboxesExhausted is returned when all sandbox tags are taken
// (paper §7.4: at most 15 sandboxes per process).
var ErrSandboxesExhausted = errors.New("core: no free sandbox tags (max 15 per process)")

// NewSandboxAllocator creates an allocator for the policy.
func NewSandboxAllocator(pol Policy) *SandboxAllocator {
	return &SandboxAllocator{pol: pol}
}

// Acquire reserves a sandbox tag for a new instance, failing with
// ErrSandboxesExhausted when the budget is spent. Use AcquireContext to
// queue for a tag instead.
func (a *SandboxAllocator) Acquire() (uint8, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acquireLocked()
}

// AcquireContext reserves a sandbox tag, blocking while the §7.4 budget
// is exhausted until another instance releases one (each Release wakes
// the waiters, condition-variable style) or ctx ends — pass a context
// with a deadline to bound the wait.
func (a *SandboxAllocator) AcquireContext(ctx context.Context) (uint8, error) {
	for {
		a.mu.Lock()
		tag, err := a.acquireLocked()
		if err == nil {
			a.mu.Unlock()
			return tag, nil
		}
		ch := a.releasedLocked()
		a.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// Released returns a channel closed at the next Release that frees
// budget. Engines that hold tags in pooled instances wait on it (plus
// their own checkin signal) before retrying a failed instantiation.
func (a *SandboxAllocator) Released() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.releasedLocked()
}

func (a *SandboxAllocator) releasedLocked() chan struct{} {
	if a.freed == nil {
		a.freed = make(chan struct{})
	}
	return a.freed
}

func (a *SandboxAllocator) acquireLocked() (uint8, error) {
	if !a.pol.Features.Sandbox {
		return RuntimeTag, nil
	}
	if a.pol.SandboxBit != 0 {
		// Combined mode: the single sandbox is the odd-tag half.
		if a.refs[a.pol.SandboxBit] >= 1 && !a.reuse {
			return 0, ErrSandboxesExhausted
		}
		a.refs[a.pol.SandboxBit]++
		a.count++
		return a.pol.SandboxBit, nil
	}
	if a.count < a.pol.MaxSandboxes {
		for t := uint8(1); t < mte.NumTags; t++ {
			if a.refs[t] == 0 {
				a.refs[t]++
				a.count++
				return t, nil
			}
		}
	}
	if a.reuse {
		// Extended mode: rotate through the guest tags; address-range
		// disjointness keeps same-tag sandboxes apart.
		a.nextRot = a.nextRot%(mte.NumTags-1) + 1
		a.refs[a.nextRot]++
		a.count++
		return a.nextRot, nil
	}
	return 0, ErrSandboxesExhausted
}

// Release returns a sandbox tag to the pool, making it available to a
// later Acquire. Releasing the runtime tag or a tag with no live owner
// is a no-op.
func (a *SandboxAllocator) Release(tag uint8) {
	if tag == RuntimeTag || tag >= mte.NumTags {
		return
	}
	a.mu.Lock()
	if a.refs[tag] > 0 {
		a.refs[tag]--
		a.count--
		if a.freed != nil {
			close(a.freed) // wake every blocked acquirer
			a.freed = nil
		}
	}
	a.mu.Unlock()
}

// InUse reports the number of live sandboxes.
func (a *SandboxAllocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// SegmentError describes a failed segment operation; the engine turns it
// into a wasm trap (Fig. 11 eqs. 6, 8, 10).
type SegmentError struct {
	Op   string
	Addr uint64
	Len  uint64
	Msg  string
}

// Error implements the error interface.
func (e *SegmentError) Error() string {
	return fmt.Sprintf("cage: %s at 0x%x (+%d): %s", e.Op, e.Addr, e.Len, e.Msg)
}

// Segments implements the segment instructions over a tag memory
// (paper Fig. 11, eqs. 5–10).
type Segments struct {
	tags *mte.Memory
	pol  Policy
	// data returns the current linear-memory bytes (the slice may move
	// on memory.grow, hence the indirection).
	data func() []byte
	// limit returns the guest-visible memory size; segments may never
	// cover runtime memory beyond it. Nil means the whole tag space.
	limit func() uint64
	// GranulesTagged counts tag-store work for the cost model.
	GranulesTagged uint64
	// TagsGenerated counts irg-style random tag draws.
	TagsGenerated uint64
}

// NewSegments wires a segment manager over tag storage and the linear
// memory accessor.
func NewSegments(tags *mte.Memory, pol Policy, data func() []byte) *Segments {
	return &Segments{tags: tags, pol: pol, data: data}
}

// SetLimit restricts segments to the first limit() bytes (the guest
// linear memory), keeping runtime memory out of reach.
func (s *Segments) SetLimit(limit func() uint64) { s.limit = limit }

// Tags exposes the underlying tag memory.
func (s *Segments) Tags() *mte.Memory { return s.tags }

// Policy returns the active tag policy.
func (s *Segments) Policy() Policy { return s.pol }

func (s *Segments) check(op string, addr, length uint64) error {
	if addr%mte.GranuleSize != 0 || length%mte.GranuleSize != 0 {
		return &SegmentError{Op: op, Addr: addr, Len: length,
			Msg: "segment not aligned to 16 bytes"}
	}
	bound := s.tags.Size()
	if s.limit != nil {
		bound = s.limit()
	}
	if addr+length < addr || addr+length > bound {
		return &SegmentError{Op: op, Addr: addr, Len: length,
			Msg: "segment outside linear memory"}
	}
	return nil
}

// New implements segment.new: creates a zeroed segment of length bytes
// at untag(ptr)+offset with a fresh random tag, returning the tagged
// pointer (Fig. 11 eq. 5; trap conditions eq. 6).
func (s *Segments) New(ptr, length, offset uint64) (uint64, error) {
	addr := ptrlayout.Address(ptrlayout.StripTag(ptr)) + offset
	if err := s.check("segment.new", addr, length); err != nil {
		return 0, err
	}
	// irg with per-draw exclusion: rule out the block's current tag
	// and — because segment.free stamps NextTag(owner) — the previous
	// owner's tag recovered via PrevTag. A stale pointer from the
	// immediately preceding lifetime therefore always mismatches
	// (Scudo-style previous-tag exclusion); temporal safety for older
	// generations stays probabilistic (§7.4).
	extra := uint16(0)
	if cur, uniform := s.tags.RangeTag(addr, length); uniform {
		extra = 1<<cur | 1<<s.tags.PrevTag(cur)
	}
	tag := s.tags.RandomTagExcluding(extra)
	s.TagsGenerated++
	if err := s.tags.SetTagRange(addr, length, tag); err != nil {
		return 0, &SegmentError{Op: "segment.new", Addr: addr, Len: length, Msg: err.Error()}
	}
	s.GranulesTagged += length / mte.GranuleSize
	if buf := s.data(); addr < uint64(len(buf)) {
		clear(buf[addr:min(addr+length, uint64(len(buf)))])
	}
	return ptrlayout.WithTag(addr, tag), nil
}

// SetTag implements segment.set_tag: transfers ownership of the region
// at untag(ptr)+offset to the tag carried by tagged (Fig. 11 eq. 7).
func (s *Segments) SetTag(ptr, tagged, length, offset uint64) error {
	addr := ptrlayout.Address(ptrlayout.StripTag(ptr)) + offset
	if err := s.check("segment.set_tag", addr, length); err != nil {
		return err
	}
	tag := ptrlayout.Tag(tagged)
	if err := s.tags.SetTagRange(addr, length, tag); err != nil {
		return &SegmentError{Op: "segment.set_tag", Addr: addr, Len: length, Msg: err.Error()}
	}
	s.GranulesTagged += length / mte.GranuleSize
	return nil
}

// Free implements segment.free: verifies the caller's tagged pointer
// still owns the segment (catching double-free) and retags the region
// with a fresh, different tag so stale pointers fault (Fig. 11 eqs.
// 9–10; paper §4.2).
func (s *Segments) Free(tagged, length, offset uint64) error {
	addr := ptrlayout.Address(tagged) + offset
	if err := s.check("segment.free", addr, length); err != nil {
		return err
	}
	ptrTag := ptrlayout.Tag(tagged)
	memTag, uniform := s.tags.RangeTag(addr, length)
	if !uniform || memTag != ptrTag {
		return &SegmentError{Op: "segment.free", Addr: addr, Len: length,
			Msg: fmt.Sprintf("pointer tag %#x does not own segment (memory tag %#x) — double free or invalid free", ptrTag, memTag)}
	}
	// free_tag: deterministically the owner's successor tag. It always
	// differs from the owner's — every stale access between free and
	// reuse traps — and it encodes the owner (PrevTag recovers it), so
	// segment.new can exclude the previous lifetime's tag on reuse.
	freeTag := s.tags.NextTag(ptrTag)
	s.TagsGenerated++
	if err := s.tags.SetTagRange(addr, length, freeTag); err != nil {
		return &SegmentError{Op: "segment.free", Addr: addr, Len: length, Msg: err.Error()}
	}
	s.GranulesTagged += length / mte.GranuleSize
	return nil
}

// InstanceKeys is the per-instance pointer-authentication state: PAC
// keys are per-process, so Cage derives per-instance behaviour from a
// random modifier (paper §6.3).
type InstanceKeys struct {
	Config   pac.Config
	Key      pac.Key
	Modifier uint64
}

// NewInstanceKeys mints the PAC state for a new instance.
func NewInstanceKeys(processKey pac.Key, modifier uint64) InstanceKeys {
	return InstanceKeys{Config: pac.DefaultConfig, Key: processKey, Modifier: modifier}
}

// Sign implements i64.pointer_sign (Fig. 11 eq. 11).
func (k InstanceKeys) Sign(ptr uint64) uint64 {
	return k.Config.Sign(ptr, k.Modifier, k.Key)
}

// Auth implements i64.pointer_auth (Fig. 11 eqs. 12–13); the error is a
// trap.
func (k InstanceKeys) Auth(ptr uint64) (uint64, error) {
	return k.Config.Auth(ptr, k.Modifier, k.Key)
}
