package exec

// Restore tracking is page-granular: 4 KiB of linear memory, which is
// also exactly 256 MTE tag granules.
const (
	dirtyPageShift = 12
	dirtyPageSize  = 1 << dirtyPageShift
)

// dirtySet is the instance's restore witness: one bit per page of
// inst.mem, host reserve included. A set bit means the page's bytes or
// its tag granules may differ from the base image — Instance.lastImage,
// or the pristine layout (zero bytes, the instantiation tag layout;
// storage.go) while that is nil. Every path that resolves an address for
// writing marks the set, so RestoreFromSnapshot rewrites exactly the
// pages a call touched, Snapshot captures exactly the pages
// initialisation wrote, and the next holder of the instance's storage
// scrubs exactly the pages this one wrote. Two coarser states are states
// of the set, not extra flags: setAll (memory.grow, MarkMemoryDirty)
// dirties every page until the next clear, and pinned keeps every page
// dirty for good, and the storage out of the recycling pool — a raw
// memory view escaped and can be written behind the runtime's back at
// any time.
type dirtySet struct {
	bits   []uint64
	pages  int
	pinned bool
}

// resize sizes the set for a memory of memLen bytes and empties it.
func (d *dirtySet) resize(memLen int) {
	d.pages = (memLen + dirtyPageSize - 1) >> dirtyPageShift
	d.bits = make([]uint64, (d.pages+63)>>6)
}

// clear empties the set: a restore or capture has left memory equal to
// the base image.
func (d *dirtySet) clear() { clear(d.bits) }

func (d *dirtySet) setAll() {
	for i := range d.bits {
		d.bits[i] = ^uint64(0)
	}
}

// mark records a write of n bytes at addr; the range must lie inside
// the memory. Scalar stores take one trip through the loop.
func (d *dirtySet) mark(addr, n uint64) {
	for p, end := addr>>dirtyPageShift, (addr+n+dirtyPageSize-1)>>dirtyPageShift; p < end; p++ {
		d.bits[p>>6] |= 1 << (p & 63)
	}
}

// has reports whether page p is in the set.
func (d *dirtySet) has(p int) bool { return d.pinned || d.bits[p>>6]>>(p&63)&1 != 0 }

// nextRun returns the first maximal run [lo, hi) of dirty pages at or
// after page from; lo == hi means there is none.
func (d *dirtySet) nextRun(from int) (lo, hi int) {
	for lo = from; lo < d.pages && !d.has(lo); lo++ {
		if lo&63 == 0 && d.bits[lo>>6] == 0 {
			lo += 63 // skip a clean word
		}
	}
	for hi = lo; hi < d.pages && d.has(hi); hi++ {
	}
	return lo, hi
}
