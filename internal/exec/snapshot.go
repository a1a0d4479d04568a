package exec

import (
	"fmt"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/mte"
	"cage/internal/wasm"
)

// Snapshot is a frozen image of one instance's mutable state: guest
// memory (plus the host reserve), memory size, globals, the indirect
// call table, the MTE tag image and generator state, the PAC instance
// keys, and the §7.2/§7.4 accounting needed to make a restored instance
// indistinguishable from the one captured. Memory and tags are stored
// by span: the page runs the captured instance's storage had written.
// Outside them the image is the pristine layout (storage.go) and stores
// nothing. Snapshots are immutable once
// taken and safe to restore from concurrently — that is what lets one
// post-initialization image fan out to a whole pool (Wizer-style
// pre-initialization: run the expensive start/init once, fork the
// result forever after).
//
// A snapshot is captured by Instance.Snapshot and consumed either by
// Config.Snapshot at instantiation (NewInstance skips data-segment
// replay, whole-memory tagging, and the start function, restoring the
// image instead) or by Instance.RestoreFromSnapshot on a live instance
// (the pooled reset); see doc.go for the two legs.
type Snapshot struct {
	module   *wasm.Module
	features core.Features
	memSize  uint64
	// memLen is the length of the memory the image describes: memSize
	// bytes plus the host reserve.
	memLen int
	// mem holds the bytes of spans, back to back; every byte of the image
	// outside them is zero and is not stored.
	mem     []byte
	globals []uint64
	table   []int32
	keys    core.InstanceKeys
	sandbox uint8 // sandbox tag the image was captured under
	// signedPtrs records whether an i64.pointer_sign signed anything
	// before the capture (PtrAuth on: the nop variant signs nothing). If
	// none did, the image cannot contain signed pointers, and a fork
	// rotates its PAC modifier per §6.3; if one did, forks must adopt the
	// snapshot keys so stored signatures keep authenticating.
	signedPtrs bool

	// MTE state (zero without MTE features). tags holds the tags of spans,
	// back to back like mem, one byte per granule (256 per page): the
	// tags of mem[at:] start at tags[at/GranuleSize]. Outside the spans the
	// image's tags are sandbox over [0, memSize) and 0 over the host
	// reserve, and are not stored.
	tags            []uint8
	tagRng          uint64
	granulesTagged  uint64
	tagsGenerated   uint64
	startupGranules uint64

	// spans are the page runs of the image that may differ from the
	// pristine layout: what the captured instance had written since its
	// own base image, plus that image's spans. A post-init image is mostly
	// pristine, so an install onto pristine storage copies only these.
	spans []memSpan
}

// memSpan is a half-open byte range [off, end) of the snapshot image;
// its bytes are mem[at : at+end-off].
type memSpan struct{ off, end, at int }

// MemorySize returns the guest-visible memory size of the image.
func (s *Snapshot) MemorySize() uint64 { return s.memSize }

// SignedPointers reports whether the image may carry signed pointers,
// in which case every fork of it adopts its PAC keys: forks share one
// modifier.
func (s *Snapshot) SignedPointers() bool { return s.signedPtrs }

// Close does nothing: a snapshot holds no OS resource, only heap memory
// the collector reclaims. It remains for the one caller that cannot be
// edited with the rest (benchmark/layers.go; ROADMAP, "Unblock the
// parked deletions").
func (s *Snapshot) Close() {}

// Snapshot captures the instance's current mutable state. The instance
// must be quiescent: not closed and with no invocation in flight
// (snapshots are taken between calls, never during one). The instance
// remains fully usable afterwards; the snapshot shares nothing with it.
//
// Only the pages in the dirty set (and the base image's spans) can
// differ from the pristine layout, so only their bytes and tags are
// stored: capture costs, and the image retains, what initialisation
// wrote. The instance then equals the image, so the capture arms its
// restore witness (lastImage, empty set).
func (inst *Instance) Snapshot() (*Snapshot, error) {
	if inst.closed {
		return nil, fmt.Errorf("exec: snapshot of closed instance")
	}
	if inst.depth != 0 {
		return nil, fmt.Errorf("exec: snapshot with invocation in flight (depth %d)", inst.depth)
	}
	memLen := len(inst.mem)
	s := &Snapshot{
		module:     inst.module,
		features:   inst.features,
		memSize:    inst.memSize,
		memLen:     memLen,
		globals:    append([]uint64(nil), inst.globals...),
		table:      append([]int32(nil), inst.table...),
		keys:       inst.keys,
		sandbox:    inst.sandbox,
		signedPtrs: inst.features.PtrAuth && inst.counter.Get(arch.EvPACSign) > 0,

		startupGranules: inst.StartupGranulesTagged,
	}
	tags := inst.tagArray()
	if inst.tags != nil {
		s.tagRng = inst.tags.RandState()
		s.granulesTagged = inst.segs.GranulesTagged
		s.tagsGenerated = inst.segs.TagsGenerated
	}
	inst.markBaseSpans() // the set is cleared below
	for lo, hi := inst.dirty.nextRun(0); lo < hi; lo, hi = inst.dirty.nextRun(hi) {
		sp := memSpan{lo << dirtyPageShift, min(hi<<dirtyPageShift, memLen), len(s.mem)}
		s.mem = append(s.mem, inst.mem[sp.off:sp.end]...)
		s.spans = append(s.spans, sp)
		if tags != nil {
			s.tags = append(s.tags, tags[sp.off/mte.GranuleSize:granules(sp.end)]...)
		}
	}
	inst.lastImage = s
	inst.dirty.clear()
	return s, nil
}

// RestoreFromSnapshot returns the instance to the exact state captured
// in s: memory, globals, table, MTE tags and generator state, PAC
// state, and accounting. It is the one way back to a known state: the
// pooled reset and snapshot-based instantiation (Config.Snapshot) both
// go through it. seed seeds the fork's fresh per-lifetime randomness
// where the image permits it (see below); 0 keeps the instance's
// current derivations.
//
// Memory and tags take one of two legs (see the package docs). When s
// is the image the instance already holds — its last restore or
// capture — at the same size, restoreDirty rewrites the pages in the
// dirty set and nothing else. Anything else — a first restore, a new
// image, a grown memory — installs the whole image (installImage). One
// shared tail restores the small state and scrubs the frame machine.
// Neither leg charges architectural events: a fork never executes the
// stg loops the image already paid for.
//
// The restored instance keeps its own sandbox tag — sandbox identity is
// applied at access time through the tagged heap base, never stored in
// guest memory, so the image is portable across tags; the tag image is
// remapped where the identities differ. PAC keys: when the image
// provably contains no signed pointers (no i64.pointer_sign signed
// before the capture), the fork rotates its modifier from seed,
// preserving the §6.3 one-modifier-per-lifetime property; when the
// image does carry signatures, the fork must adopt the snapshot's keys
// so they keep authenticating — forks of such a snapshot share a
// modifier (see "PAC modifiers across lifetimes" in the package docs).
func (inst *Instance) RestoreFromSnapshot(s *Snapshot, seed uint64) error {
	if s == nil {
		return fmt.Errorf("exec: restore from nil snapshot")
	}
	if inst.closed {
		return fmt.Errorf("exec: restore of closed instance")
	}
	if inst.module != s.module {
		return fmt.Errorf("exec: snapshot belongs to a different module")
	}
	if inst.features != s.features {
		return fmt.Errorf("exec: snapshot captured under different features (have %+v, want %+v)",
			s.features, inst.features)
	}

	if inst.lastImage == s && inst.memSize == s.memSize {
		inst.restoredPages = inst.restoreDirty(s)
	} else {
		if err := inst.installImage(s); err != nil {
			return err
		}
		inst.restoredPages = -1
	}
	inst.lastImage = s

	inst.globals = append(inst.globals[:0], s.globals...)
	inst.table = append(inst.table[:0], s.table...)
	if inst.tags != nil {
		inst.tags.SetRandState(s.tagRng)
		inst.tags.PendingFault() // drain any latched async fault
		inst.segs.GranulesTagged = s.granulesTagged
		inst.segs.TagsGenerated = s.tagsGenerated
	}
	// PAC: adopt the image's keys when it carries signatures (they must
	// keep authenticating); otherwise rotate the modifier per §6.3 so no
	// two forked lifetimes share one.
	switch {
	case s.signedPtrs:
		inst.keys = s.keys
	case seed != 0:
		inst.keys = core.NewInstanceKeys(inst.keys.Key, deriveModifier(seed))
	}
	inst.StartupGranulesTagged = s.startupGranules
	inst.scrubCallState()
	return nil
}

// scrubCallState is RestoreFromSnapshot's scrub of the frame machine.
// The arena and frame stack keep their capacity — that retention is what
// makes a pooled checkout→call→checkin cycle steady-state
// allocation-free — but their contents are scrubbed, up to the arena's
// high-water mark, so no value from a previous lifetime (dead locals, an
// aborted operand stack) is observable in the next one. Per-call
// interruption state never outlives InvokeWith, but a recycled instance
// must be indistinguishable from a fresh one even if an embedder drove
// the instance in unexpected ways.
func (inst *Instance) scrubCallState() {
	inst.depth = 0
	inst.arenaTop = 0
	inst.frames = inst.frames[:0]
	clear(inst.vals[:inst.valsHigh])
	inst.valsHigh = 0
	inst.meter = nil
	inst.callCtx = nil
	inst.memLimitPages = 0
}

// restoreDirty is the in-place leg of RestoreFromSnapshot: it makes the
// bytes (and with MTE the tags) of every dirty page run equal to the
// image again — the pristine layout, then the image's spans inside the
// run — empties the set, and returns how many pages it rewrote.
func (inst *Instance) restoreDirty(s *Snapshot) int {
	pages, memLen, tags := 0, len(inst.mem), inst.tagArray()
	for lo, hi := inst.dirty.nextRun(0); lo < hi; lo, hi = inst.dirty.nextRun(hi) {
		off, end := lo<<dirtyPageShift, min(hi<<dirtyPageShift, memLen)
		clear(inst.mem[off:end])
		layTags(tags, off, end, inst.sandbox, inst.memSize)
		s.copySpans(inst, off, end)
		pages += hi - lo
	}
	inst.dirty.clear()
	return pages
}

// installImage is the whole-image leg of RestoreFromSnapshot: it gives
// the instance a memory and tag array equal to s, sized for it —
// pristine storage plus the image's spans. The spans are clipped to the
// memory: an image captured on heap storage carries host-reserve bytes
// that have no home in a guard reservation.
func (inst *Instance) installImage(s *Snapshot) error {
	if err := inst.setPristine(s.memLen, s.memSize); err != nil {
		return err
	}
	s.copySpans(inst, 0, len(inst.mem))
	return nil
}

// copySpans copies the parts of the image's spans inside [off, end) —
// bytes and, with MTE, tags, the capturing instance's sandbox tag
// remapped to inst's — into inst, which must already be pristine there:
// laying the layout (write-only) plus span copy beats copying a
// mostly-pristine range whole.
func (s *Snapshot) copySpans(inst *Instance, off, end int) {
	for _, sp := range s.spans {
		if sp.off >= end {
			break
		}
		a, b := max(sp.off, off), min(sp.end, end)
		if a >= b {
			continue
		}
		at := sp.at + a - sp.off
		copy(inst.mem[a:b], s.mem[at:])
		if inst.tags != nil {
			inst.tags.RestoreTagRange(s.tags[at/mte.GranuleSize:], uint64(a), uint64(b-a), s.sandbox, inst.sandbox)
		}
	}
}

// RestoredPages is the number of dirty pages the last
// RestoreFromSnapshot rewrote, or -1 for a whole-image install.
func (inst *Instance) RestoredPages() int { return inst.restoredPages }

// MarkMemoryDirty marks every page dirty; the benchmark's restore probe
// uses it to price a whole-memory restore.
func (inst *Instance) MarkMemoryDirty() { inst.dirty.setAll() }
