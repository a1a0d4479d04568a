package exec

import (
	"bytes"
	"errors"
	"fmt"

	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/wasm"
)

// Snapshot is a frozen image of one instance's mutable state: guest
// memory (plus the host reserve), memory size, globals, the indirect
// call table, the MTE tag image and generator state, the PAC instance
// keys, and the §7.2/§7.4 accounting needed to make a restored instance
// indistinguishable from the one captured. Snapshots are immutable once
// taken and safe to restore from concurrently — that is what lets one
// post-initialization image fan out to a whole pool (Wizer-style
// pre-initialization: run the expensive start/init once, fork the
// result forever after).
//
// A snapshot is captured by Instance.Snapshot and consumed either by
// Config.Snapshot at instantiation (NewInstance skips data-segment
// replay, whole-memory tagging, and the start function, restoring the
// image instead) or by Instance.RestoreFromSnapshot on a live instance
// (the pooled-reset fast path). Under the cagecow build tag on Linux
// the capture also materializes a sealed memfd image so restores can
// map it MAP_PRIVATE instead of copying; see doc.go for the build-tag
// matrix.
type Snapshot struct {
	module      *wasm.Module
	features    core.Features
	memType     wasm.MemoryType
	memSize     uint64
	hostReserve uint64
	mem         []byte // memSize+hostReserve bytes, private copy
	globals     []uint64
	table       []int32
	keys        core.InstanceKeys
	sandbox     uint8 // sandbox tag the image was captured under
	// signedPtrs records whether any i64.pointer_sign executed before
	// the capture. If none did, the image cannot contain signed
	// pointers, and a fork may rotate its PAC modifier per §6.3; if any
	// did, forks must adopt the snapshot keys so stored signatures keep
	// authenticating.
	signedPtrs bool

	// MTE state (zero without MTE features).
	tags            []uint8
	tagsSize        uint64
	tagRng          uint64
	granulesTagged  uint64
	tagsGenerated   uint64
	startupGranules uint64

	// spans are the non-zero runs of mem (at chunk granularity) and
	// sparse says whether they cover less than half of it. A freshly
	// initialized image is mostly zeros — data segments, a dirtied heap
	// prefix, the host-reserve pattern — so the bulk-copy restore path
	// can beat a full memcpy by zero-filling (write-only, memclr speed)
	// and copying only the spans.
	spans  []memSpan
	sparse bool

	// cow is the mmap-backed copy-on-write image ([mem | tags] in one
	// sealed memfd); nil when the build or kernel cannot provide one,
	// in which case restores bulk-copy.
	cow *cowImage
}

// memSpan is a half-open byte range [off, end) of the snapshot image.
type memSpan struct{ off, end int }

// snapshotChunk is the granularity of the non-zero scan. Runs are
// merged across adjacent non-zero chunks, so the span list stays short
// even for fragmented images.
const snapshotChunk = 4096

var zeroChunk [snapshotChunk]byte

// nonZeroSpans returns the maximal runs of chunks containing any
// non-zero byte.
func nonZeroSpans(b []byte) []memSpan {
	var spans []memSpan
	for off := 0; off < len(b); off += snapshotChunk {
		end := off + snapshotChunk
		if end > len(b) {
			end = len(b)
		}
		if bytes.Equal(b[off:end], zeroChunk[:end-off]) {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].end == off {
			spans[n-1].end = end
		} else {
			spans = append(spans, memSpan{off, end})
		}
	}
	return spans
}

// errCOWUnavailable is returned by the stub cowImage on builds without
// the cagecow tag (or off Linux).
var errCOWUnavailable = errors.New("exec: copy-on-write snapshot images unavailable in this build")

// SnapshotRestoreMode names the restore fast path this build uses:
// "cow" when the cagecow build tag is active on Linux (restores map a
// MAP_PRIVATE view of the frozen image), "copy" otherwise (restores
// bulk-copy into retained capacity).
func SnapshotRestoreMode() string { return snapshotRestoreMode }

// MemorySize returns the guest-visible memory size of the image.
func (s *Snapshot) MemorySize() uint64 { return s.memSize }

// Close releases the snapshot's copy-on-write image, if any. Instances
// already restored from it keep their private mappings; the snapshot
// must not be restored from afterwards. Close is optional — a snapshot
// cached for the process lifetime never needs it.
func (s *Snapshot) Close() {
	if s.cow != nil {
		s.cow.close()
		s.cow = nil
	}
}

// Snapshot captures the instance's current mutable state. The instance
// must be quiescent: not closed and with no invocation in flight
// (snapshots are taken between calls, never during one). The instance
// remains fully usable afterwards; the snapshot shares nothing with it.
func (inst *Instance) Snapshot() (*Snapshot, error) {
	if inst.closed {
		return nil, fmt.Errorf("exec: snapshot of closed instance")
	}
	if inst.depth != 0 {
		return nil, fmt.Errorf("exec: snapshot with invocation in flight (depth %d)", inst.depth)
	}
	s := &Snapshot{
		module:      inst.module,
		features:    inst.features,
		memType:     inst.memType,
		memSize:     inst.memSize,
		hostReserve: inst.hostReserve,
		mem:         append([]byte(nil), inst.mem...),
		globals:     append([]uint64(nil), inst.globals...),
		table:       append([]int32(nil), inst.table...),
		keys:        inst.keys,
		sandbox:     inst.sandbox,
		signedPtrs:  inst.counter.Get(arch.EvPACSign) > 0,

		startupGranules: inst.StartupGranulesTagged,
	}
	s.spans = nonZeroSpans(s.mem)
	var nz int
	for _, sp := range s.spans {
		nz += sp.end - sp.off
	}
	// Sparse restore (zero-fill + copy spans) moves memSize + 2·nz
	// bytes; a full memcpy moves 2·memSize. Prefer sparse below the
	// break-even point.
	s.sparse = 2*nz < len(s.mem)
	if inst.tags != nil {
		s.tags = inst.tags.CloneTags()
		s.tagsSize = inst.tags.Size()
		s.tagRng = inst.tags.RandState()
		s.granulesTagged = inst.segs.GranulesTagged
		s.tagsGenerated = inst.segs.TagsGenerated
	}
	if len(s.mem) > 0 {
		s.cow = newCOWImage(s.mem, s.tags)
	}
	return s, nil
}

// RestoreFromSnapshot returns the instance to the exact state captured
// in s: memory, globals, table, MTE tags and generator state, PAC
// state, and accounting. It is the single restore helper both the
// pooled reset path and snapshot-based instantiation (Config.Snapshot)
// go through. seed seeds the fork's fresh per-lifetime randomness where
// the image permits it (see below); 0 keeps the instance's current
// derivations.
//
// The restored instance keeps its own sandbox tag — sandbox identity is
// applied at access time through the tagged heap base, never stored in
// guest memory, so the image is portable across tags; the tag image is
// remapped where the identities differ. PAC keys: when the image
// provably contains no signed pointers (no i64.pointer_sign executed
// before the capture), the fork rotates its modifier from seed,
// preserving the §6.3 one-modifier-per-lifetime property; when the
// image does carry signatures, the fork must adopt the snapshot's keys
// so they keep authenticating — forks of such a snapshot share a
// modifier (see the package docs for the Reset-semantics migration
// note).
//
// Restore cost: with a copy-on-write image (cagecow build tag, Linux),
// memory restore is an mmap of clean shared pages — O(1)-ish in heap
// size; otherwise it is one bulk copy into retained capacity — a
// zero-fill plus non-zero-span copy when the image is mostly zeros
// (the common post-init shape), a straight memcpy otherwise. Tag-array
// work is skipped entirely when the instance's static tag layout
// already matches (no segments feature), so no stg-loop events are
// charged for work the fork never performs.
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

	// Clean-memory elision: when the last restore left memory equal to
	// this same image and nothing could have written it since — no
	// store path ran (memDirty), no raw view ever escaped (memExposed)
	// — the memory bytes, size, and backing mapping are all already
	// exactly the image, so the clear+copy (the dominant cost of
	// recycling a pooled instance) is skipped. grow sets memDirty, so a
	// clean instance also has the image's sizes. Tag state and the
	// frame-machine scrub below still run; their own witnesses keep
	// them O(1) in the common case.
	memClean := inst.lastImage == s && !inst.memDirty && !inst.memExposed

	// The previous mapping (if any) must outlive every read from state
	// that may still alias it; it is released at the end.
	oldUnmap := inst.memUnmap
	inst.memUnmap = nil

	if inst.gmap != nil {
		// Guard-region backend: the reservation must never be replaced by
		// a COW view or a heap buffer — the guard handlers index gmem
		// directly — so restore is always recommit + copy. Spans are
		// clipped to the guest size: an image captured on the heap
		// backend carries host-reserve bytes past memSize that have no
		// home (and no mapping) here.
		if !memClean {
			if err := inst.gmap.SetCommitted(s.memSize); err != nil {
				return err
			}
			inst.mem = inst.gmem[:s.memSize]
			clear(inst.mem)
			copySpansClipped(inst.mem, s)
		}
		inst.memSize = s.memSize
		// hostReserve stays 0: the guard layout has no host region.

		inst.globals = append(inst.globals[:0], s.globals...)
		inst.table = append(inst.table[:0], s.table...)
		switch {
		case s.signedPtrs:
			inst.keys = s.keys
		case !inst.fixedModifier && seed != 0:
			inst.keys = core.NewInstanceKeys(inst.keys.Key, deriveModifier(seed))
		}
		inst.StartupGranulesTagged = s.startupGranules
		inst.depth = 0
		inst.arenaTop = 0
		inst.frames = inst.frames[:0]
		clear(inst.vals)
		inst.meter = nil
		inst.callCtx = nil
		inst.memLimitPages = 0
		inst.lastImage = s
		inst.memDirty = false
		if oldUnmap != nil {
			oldUnmap()
		}
		return nil
	}

	restored := false
	if memClean {
		// Memory (and any private mapping backing it) already equals the
		// image; keep both untouched.
		inst.memUnmap = oldUnmap
		oldUnmap = nil
		inst.restoreTags(s, nil)
		restored = true
	}
	if !restored && s.cow != nil {
		if mem, tagView, unmap, err := s.cow.mapView(); err == nil {
			inst.mem = mem
			inst.memUnmap = unmap
			inst.restoreTags(s, tagView)
			restored = true
		}
	}
	if !restored {
		switch {
		case len(inst.mem) != len(s.mem):
			// A fresh buffer arrives zeroed; only the spans need copying.
			inst.mem = make([]byte, len(s.mem))
			copySpans(inst.mem, s)
		default:
			if oldUnmap != nil {
				// The retained buffer is itself a private mapping of the
				// right size; overwrite it in place (dirtying private
				// pages) rather than unmapping and reallocating.
				inst.memUnmap = oldUnmap
				oldUnmap = nil
			}
			if s.sparse {
				clear(inst.mem)
				copySpans(inst.mem, s)
			} else {
				copy(inst.mem, s.mem)
			}
		}
		inst.restoreTags(s, nil)
	}
	inst.memSize = s.memSize
	inst.hostReserve = s.hostReserve

	inst.globals = append(inst.globals[:0], s.globals...)
	inst.table = append(inst.table[:0], s.table...)

	// PAC: adopt the image's keys when it carries signatures (they must
	// keep authenticating); otherwise rotate the modifier per §6.3 so no
	// two forked lifetimes share one.
	switch {
	case s.signedPtrs:
		inst.keys = s.keys
	case !inst.fixedModifier && seed != 0:
		inst.keys = core.NewInstanceKeys(inst.keys.Key, deriveModifier(seed))
	}
	inst.StartupGranulesTagged = s.startupGranules

	// Frame-machine and per-call state: same scrub as ResetState, so a
	// restore after a trapped execution leaves nothing behind.
	inst.depth = 0
	inst.arenaTop = 0
	inst.frames = inst.frames[:0]
	clear(inst.vals)
	inst.meter = nil
	inst.callCtx = nil
	inst.memLimitPages = 0
	inst.lastImage = s
	inst.memDirty = false

	if oldUnmap != nil {
		oldUnmap()
	}
	return nil
}

// MarkMemoryDirty discards the clean-memory witness, forcing the next
// RestoreFromSnapshot to take the full clear+copy path. Its one caller
// is the benchmark's restore probe (benchmark/layers.go), which prices
// the un-elided restore; it is never needed for correctness.
func (inst *Instance) MarkMemoryDirty() { inst.memDirty = true }

// restoreTags restores the MTE tag state from s. cowTags, when non-nil,
// is the tag region of a freshly mapped private view of the snapshot
// image, which can be adopted without copying.
func (inst *Instance) restoreTags(s *Snapshot, cowTags []uint8) {
	if inst.tags == nil {
		return
	}
	defer func() {
		inst.tags.SetRandState(s.tagRng)
		inst.tags.PendingFault() // drain any latched async fault
		inst.segs.GranulesTagged = s.granulesTagged
		inst.segs.TagsGenerated = s.tagsGenerated
		inst.tagRestoreMark = s.granulesTagged
	}()
	if !inst.features.MemSafety {
		// Without segments the tag image is static: uniformly the
		// sandbox tag over guest memory, runtime tag over the host
		// reserve. When the instance's own image already has that shape
		// at the right size — armed by the previous restore and
		// unperturbed since (the segment counter is the witness) — there
		// is nothing to do: tag restore is O(1) regardless of heap size.
		if inst.tagsStatic && inst.tags.Size() == s.tagsSize &&
			inst.segs.GranulesTagged == inst.tagRestoreMark {
			return
		}
		inst.tags.RestoreTags(s.tags, s.tagsSize, s.sandbox, inst.sandbox)
		inst.tagsStatic = true
		return
	}
	inst.tagsStatic = false
	if cowTags != nil {
		inst.tags.AdoptTags(cowTags, s.tagsSize)
		if s.sandbox != inst.sandbox {
			// Only reachable when sandbox identities can differ under
			// segments — the combined mode's single-tag budget makes
			// this remap an identity in practice (§6.4).
			remapTags(cowTags, s.sandbox, inst.sandbox)
		}
		return
	}
	inst.tags.RestoreTags(s.tags, s.tagsSize, s.sandbox, inst.sandbox)
}

// copySpans copies the non-zero spans of the snapshot image into dst,
// which must already be zero everywhere else.
func copySpans(dst []byte, s *Snapshot) {
	for _, sp := range s.spans {
		copy(dst[sp.off:sp.end], s.mem[sp.off:sp.end])
	}
}

// copySpansClipped is copySpans for a destination shorter than the
// image (the guard backend's guest-only view of a heap-backed image,
// whose host-reserve tail is dropped).
func copySpansClipped(dst []byte, s *Snapshot) {
	for _, sp := range s.spans {
		if sp.off >= len(dst) {
			return
		}
		end := sp.end
		if end > len(dst) {
			end = len(dst)
		}
		copy(dst[sp.off:end], s.mem[sp.off:end])
	}
}

// remapTags rewrites granules tagged from to the tag to.
func remapTags(tags []uint8, from, to uint8) {
	for i, t := range tags {
		if t == from {
			tags[i] = to
		}
	}
}

// releaseMapping unmaps the copy-on-write view backing the instance's
// memory, if any. Callers must have replaced (or be discarding) every
// reference into the view first: inst.mem and, when adopted, the tag
// array.
func (inst *Instance) releaseMapping() {
	if inst.memUnmap != nil {
		inst.memUnmap()
		inst.memUnmap = nil
	}
}
