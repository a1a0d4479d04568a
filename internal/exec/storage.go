package exec

import (
	"sync/atomic"

	"cage/internal/mte"
	"cage/internal/vmem"
)

// An instance's memory has one of two backings, and this file is the
// only one that knows which: heap storage (below), or — for a program
// lowered with guard opcodes, which vmem.Supported decides once per
// process — a vmem reservation that the instance keeps from its first
// setPristine to release. NewInstance, ResetState, installImage,
// memory.grow and Close go through setPristine, growStorage and release
// and never ask.

// storage is what outlives a heap-backed instance: its linear memory,
// its tag array, and the set of pages it wrote. Everything outside
// written is in the pristine layout — zero bytes; tags sandbox over
// [0, memSize) and 0 over the host reserve — so the next holder pays
// for the pages the previous one wrote, not for the memory's size. See
// "Storage, the pristine layout and the written set" in the package
// docs.
type storage struct {
	mem     []byte
	tags    []uint8  // one per granule of mem; nil without MTE features
	written dirtySet // pages whose bytes or tags may differ from the layout
	sandbox uint8    // the layout's tag over [0, memSize)
	memSize uint64
}

// memPool holds the storage of retired instances, process-wide: at most
// four, of at most memPoolMax bytes of memory each. A pool that spawns
// right after reclaiming or closing an instance would otherwise turn a
// multi-MiB memory and its tag array into garbage per birth — with
// little else live that is a collection every other spawn, and fresh
// buffers whose cost depends on what the scavenger last did with the
// freed pages — and then clear and tag them whole.
var memPool = make(chan storage, 4)

const memPoolMax = 16 << 20

// Births, process-wide: how many storages newStorage took from memPool
// and how many it had to make.
var birthsRecycled, birthsFresh atomic.Uint64

// BirthStats returns how many instance births (and re-sizing resets and
// installs) in this process ran on a retired instance's storage and how
// many on newly made storage. Births onto a guard mapping count as
// neither.
func BirthStats() (recycled, fresh uint64) { return birthsRecycled.Load(), birthsFresh.Load() }

// newStorage returns storage of memLen bytes in the pristine layout for
// a holder with the given sandbox tag and guest size: the oldest retired
// one when it has that size and tag array (another shape is dropped),
// scrubbed; otherwise a new one.
func newStorage(memLen int, tagged bool, sandbox uint8, memSize uint64) storage {
	select {
	case st := <-memPool:
		if len(st.mem) == memLen && (st.tags != nil) == tagged {
			birthsRecycled.Add(1)
			st.scrub(sandbox, memSize)
			return st
		}
	default:
	}
	birthsFresh.Add(1)
	st := storage{mem: make([]byte, memLen), memSize: memSize}
	if tagged {
		st.tags = make([]uint8, granules(memLen))
	}
	st.written.resize(memLen)
	st.scrub(sandbox, memSize) // nothing written: lays the tags, if sandbox is not 0
	return st
}

// scrub returns st to the pristine layout for a holder with the given
// sandbox tag and guest size by clearing and refilling only the written
// page runs; the whole tag array is refilled only when the layout itself
// changes. Whoever held st, nothing it wrote survives: every write path
// marks the page it resolves (dirty.go), which FuzzRestoreSoundness
// holds the runtime to.
func (st *storage) scrub(sandbox uint8, memSize uint64) {
	relaid := st.sandbox != sandbox || st.memSize != memSize
	st.sandbox, st.memSize = sandbox, memSize
	if relaid {
		layTags(st.tags, 0, len(st.mem), sandbox, memSize)
	}
	for lo, hi := st.written.nextRun(0); lo < hi; lo, hi = st.written.nextRun(hi) {
		off, end := lo<<dirtyPageShift, min(hi<<dirtyPageShift, len(st.mem))
		clear(st.mem[off:end])
		if !relaid {
			layTags(st.tags, off, end, sandbox, memSize)
		}
	}
	st.written.clear()
}

// granules is the number of tag granules that cover n bytes.
func granules(n int) int { return (n + mte.GranuleSize - 1) / mte.GranuleSize }

// layTags writes the pristine tag layout — sandbox over [0, memSize), 0
// over the host reserve — over the granules of bytes [off, end) of tags;
// off is on a granule. A nil tags (no MTE features) has none.
func layTags(tags []uint8, off, end int, sandbox uint8, memSize uint64) {
	lo, hi := min(off/mte.GranuleSize, len(tags)), min(granules(end), len(tags))
	split := min(max(int(memSize/mte.GranuleSize), lo), hi)
	mte.FillTags(tags[lo:split], sandbox)
	mte.FillTags(tags[split:hi], 0)
}

// recycle offers st, which nothing may reference anymore, to a later
// newStorage — unless a raw view of its memory escaped (pinned), whose
// holder may still write through it.
func (st storage) recycle() {
	if st.mem != nil && !st.written.pinned && len(st.mem) <= memPoolMax {
		select {
		case memPool <- st:
		default:
		}
	}
}

// heapStorage returns the instance's storage while it is heap-backed, and
// the zero storage while its memory is a guard mapping (or it has none).
// The written set is the dirty set plus the base image's spans: every
// page after memory.grow or MarkMemoryDirty, and every page for good
// once a raw view escaped.
func (inst *Instance) heapStorage() storage {
	if inst.gmap != nil || inst.mem == nil {
		return storage{}
	}
	inst.markBaseSpans()
	return storage{mem: inst.mem, tags: inst.tagArray(), written: inst.dirty, sandbox: inst.sandbox, memSize: inst.memSize}
}

// tagArray returns the instance's live tag array, nil without MTE
// features.
func (inst *Instance) tagArray() []uint8 {
	if inst.tags == nil {
		return nil
	}
	return inst.tags.Tags()
}

// markBaseSpans adds the base image's spans to the dirty set, which then
// holds every page the instance's storage has had written since it was
// pristine — what a capture must store and a scrub must clear.
func (inst *Instance) markBaseSpans() {
	if base := inst.lastImage; base != nil {
		for _, sp := range base.spans {
			if end := min(sp.end, len(inst.mem)); sp.off < end {
				inst.dirty.mark(uint64(sp.off), uint64(end-sp.off))
			}
		}
	}
}

// setPristine gives the instance storage of memLen bytes in the pristine
// layout for a guest size of memSize; a module without a memory gets
// none. NewInstance, ResetState and installImage all start here.
//
// Heap: its own storage, scrubbed in place, when it has that size;
// otherwise a retired instance's or a new one, its own going to the
// pool.
//
// Guard: the reservation, mapped on the first call and never replaced —
// the guard handlers index gmem directly — with memSize bytes committed.
// It has no host reserve (every byte past the guest prefix is PROT_NONE,
// which is the point), so memLen is not used, and no tags (Cage features
// need a 64-bit memory). Pages a shrink decommits come back zero from
// the kernel; the prefix that stays committed keeps its contents and is
// cleared by its written page runs. A reservation is never pooled.
func (inst *Instance) setPristine(memLen int, memSize uint64) error {
	if len(inst.module.Mems) == 0 {
		return nil
	}
	if inst.prog.Cfg.Guard {
		if inst.gmap == nil {
			gm, err := vmem.Map(0)
			if err != nil {
				return err
			}
			inst.gmap, inst.gmem = gm, gm.Bytes()
		}
		inst.markBaseSpans()
		if err := inst.gmap.SetCommitted(memSize); err != nil {
			return err
		}
		kept := min(len(inst.mem), int(memSize))
		for lo, hi := inst.dirty.nextRun(0); lo<<dirtyPageShift < kept && lo < hi; lo, hi = inst.dirty.nextRun(hi) {
			clear(inst.gmem[lo<<dirtyPageShift : min(hi<<dirtyPageShift, kept)])
		}
		inst.mem, inst.memSize, inst.hostReserve = inst.gmem[:memSize], memSize, 0
		inst.dirty.resize(len(inst.mem))
		return nil
	}
	st := inst.heapStorage()
	if len(st.mem) == memLen {
		st.scrub(inst.sandbox, memSize)
	} else {
		st.recycle()
		st = newStorage(memLen, inst.tags != nil, inst.sandbox, memSize)
	}
	// Once a raw view escaped, the instance stays pinned whatever storage
	// it moves to: the scrub in place above (like a guard reservation)
	// keeps the address a retained slice points at.
	st.written.pinned = inst.dirty.pinned
	inst.mem, inst.memSize, inst.dirty = st.mem, memSize, st.written
	inst.hostReserve = uint64(memLen) - memSize
	if inst.tags != nil {
		inst.tags.AdoptTags(st.tags, uint64(memLen))
	}
	return nil
}

// growStorage resizes the guest memory to newSize bytes, keeping its
// contents and the host reserve behind it, and marks every page dirty:
// a guard reservation commits more of itself (an mprotect, so gmem and
// every guard handler's view of it stay valid), heap storage is copied
// into a new buffer and tag array. It reports whether the backing
// allowed it.
func (inst *Instance) growStorage(newSize uint64) bool {
	if inst.gmap != nil {
		if inst.gmap.SetCommitted(newSize) != nil { // also refuses sizes past vmem.GuestLimit
			return false
		}
		inst.mem = inst.gmem[:newSize]
	} else {
		hostLen := uint64(len(inst.mem)) - inst.memSize
		grown := make([]byte, newSize+hostLen)
		copy(grown, inst.mem[:inst.memSize])
		copy(grown[newSize:], inst.mem[inst.memSize:])
		inst.mem = grown
		if inst.tags != nil {
			inst.tags.Grow(newSize + hostLen)
		}
	}
	inst.memSize = newSize
	inst.dirty.resize(len(inst.mem))
	inst.dirty.setAll()
	return true
}

// release gives up the instance's storage, which nothing may reference
// from here on: heap storage — memory, tag array, written page set —
// goes to the next birth of its size unless a view of it escaped, a
// guard reservation is unmapped. Close and a failed NewInstance end
// here.
func (inst *Instance) release() error {
	st := inst.heapStorage()
	if inst.tags != nil {
		inst.tags.AdoptTags(nil, 0)
	}
	inst.mem, inst.gmem = nil, nil
	st.recycle()
	if inst.gmap == nil {
		return nil
	}
	gm := inst.gmap
	inst.gmap = nil
	return gm.Unmap()
}
