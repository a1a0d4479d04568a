package engine

import "sync/atomic"

// lifo is a fixed-capacity, ABA-safe Treiber stack of Resetters — the
// pool's lock-free checkout/checkin fast path. Uncontended push and pop
// are each at most two compare-and-swaps (one on the stack head, one on
// the internal free list) and never allocate: slots are preallocated at
// construction and recycled through the free list.
//
// Both list heads pack a 32-bit version tag above a 32-bit slot index
// (offset by one so zero means "empty"). Every successful CAS bumps the
// version, so the classic ABA hazard — a stale head whose slot was
// popped, recycled, and pushed back between our load and our CAS — is
// caught by the version mismatch; a stale next-pointer read is
// discarded with the failed CAS, never dereferenced as truth.
//
// A full stack rejects the push (the pool then closes the instance), so
// capacity bounds how many idle instances a pool keeps.
type lifo struct {
	head  atomic.Uint64 // versioned top of the value stack
	free  atomic.Uint64 // versioned top of the free-slot list
	size  atomic.Int32  // occupancy (stats only; maintained after the fact)
	slots []lifoSlot
}

// lifoSlot is padded out to a cache line so neighboring slots never
// false-share under concurrent push/pop storms.
type lifoSlot struct {
	val  Resetter
	next atomic.Uint32 // index+1 of the slot beneath; 0 terminates
	_    [64 - 16 - 4]byte
}

// packPtr packs a version tag and an index+1 into one CAS-able word.
func packPtr(ver, idxPlus1 uint32) uint64 {
	return uint64(ver)<<32 | uint64(idxPlus1)
}

// newLifo builds a stack with the given slot capacity, all slots free.
func newLifo(capacity int) *lifo {
	l := &lifo{slots: make([]lifoSlot, capacity)}
	// Thread every slot onto the free list: slot i links down to i-1.
	for i := range l.slots {
		l.slots[i].next.Store(uint32(i))
	}
	l.free.Store(packPtr(0, uint32(capacity)))
	return l
}

// popFrom pops the top slot index off the list rooted at head.
func (l *lifo) popFrom(head *atomic.Uint64) (int, bool) {
	for {
		old := head.Load()
		idxPlus1 := uint32(old)
		if idxPlus1 == 0 {
			return 0, false
		}
		next := l.slots[idxPlus1-1].next.Load()
		if head.CompareAndSwap(old, packPtr(uint32(old>>32)+1, next)) {
			return int(idxPlus1 - 1), true
		}
	}
}

// pushTo pushes slot idx onto the list rooted at head.
func (l *lifo) pushTo(head *atomic.Uint64, idx int) {
	for {
		old := head.Load()
		l.slots[idx].next.Store(uint32(old))
		if head.CompareAndSwap(old, packPtr(uint32(old>>32)+1, uint32(idx+1))) {
			return
		}
	}
}

// push makes inst available to pop. It reports false when every slot is
// in use (stack full) — the caller keeps ownership of inst.
func (l *lifo) push(inst Resetter) bool {
	idx, ok := l.popFrom(&l.free)
	if !ok {
		return false
	}
	l.slots[idx].val = inst
	l.pushTo(&l.head, idx)
	l.size.Add(1)
	return true
}

// pop takes the most recently pushed instance, if any.
func (l *lifo) pop() (Resetter, bool) {
	idx, ok := l.popFrom(&l.head)
	if !ok {
		return nil, false
	}
	inst := l.slots[idx].val
	l.slots[idx].val = nil
	l.pushTo(&l.free, idx)
	l.size.Add(-1)
	return inst, true
}
