// Package alloc is the Cage-hardened heap allocator, the reproduction of
// the paper's modified dlmalloc in wasi-libc (§6.2, Fig. 8a).
//
// Layout: the heap is a run of contiguous blocks, each a 16-byte header
// followed by a 16-byte-aligned payload. Headers are allocator metadata
// and stay untagged (guard-tagged), so they both protect themselves from
// heap overflows and act as the guard slots that keep adjacent
// allocations from ever sharing a tag — an overflow off the end of one
// allocation always runs into an untagged header first (Fig. 8a).
//
// On malloc the allocator rounds the request up to 16 bytes, carves a
// block, and creates a segment over the payload (segment.new), returning
// the tagged pointer. On free it verifies ownership and retags via
// segment.free, catching use-after-free and double-free. Without the
// memory-safety feature the same allocator runs untagged, which is the
// wasm64 baseline configuration.
package alloc

import (
	"errors"
	"fmt"

	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/ptrlayout"
	"cage/internal/wasm"
)

// HeaderSize is the untagged metadata slot preceding every payload.
const HeaderSize = 16

// headerMagic guards against corrupted or forged headers; it occupies
// the top 16 bits of the first header word.
const headerMagic uint64 = 0xCA6E << 48

// ErrOutOfMemory is returned when the heap cannot grow any further.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// ErrInvalidFree is returned for frees of unknown or corrupt pointers.
var ErrInvalidFree = errors.New("alloc: invalid free")

// block is a free-list entry (address of the header, total block size
// including the header).
type block struct {
	addr uint64
	size uint64
}

// Allocator manages a heap region inside one instance's linear memory.
type Allocator struct {
	inst      *exec.Instance
	hardened  bool
	heapStart uint64
	heapEnd   uint64  // current break
	free      []block // sorted by address, coalesced

	// Stats for the memory-overhead experiment (§7.3).
	Allocs uint64
	Frees  uint64
	InUse  uint64 // live payload bytes
	Peak   uint64
	Meta   uint64 // live metadata bytes
}

// New creates an allocator for inst managing [heapStart, memSize).
// heapStart must be 16-byte aligned.
func New(inst *exec.Instance, heapStart uint64) (*Allocator, error) {
	if heapStart%16 != 0 {
		return nil, fmt.Errorf("alloc: heap start %#x not 16-byte aligned", heapStart)
	}
	if heapStart > inst.MemorySize() {
		return nil, fmt.Errorf("alloc: heap start %#x beyond memory", heapStart)
	}
	return &Allocator{
		inst:      inst,
		hardened:  inst.Features().MemSafety,
		heapStart: heapStart,
		heapEnd:   heapStart,
	}, nil
}

// Reset abandons every live allocation and returns the heap to its
// initial empty state. Callers must reset (or re-instantiate) the
// backing instance first: Reset assumes the linear memory has been
// re-zeroed and all MTE tags cleared, so it only has to forget its own
// bookkeeping — break pointer, free list, and §7.3 statistics.
func (a *Allocator) Reset() {
	a.heapEnd = a.heapStart
	a.free = a.free[:0]
	a.Allocs, a.Frees = 0, 0
	a.InUse, a.Peak, a.Meta = 0, 0, 0
}

// HeapState is the allocator's snapshotted bookkeeping: break pointer,
// free list, and §7.3 statistics. It pairs with an exec.Snapshot of the
// backing instance — the heap's data and tags live in the instance
// image; this is the host-side metadata that must travel with them.
// A HeapState is immutable once captured and safe to Restore from
// concurrently into different allocators.
type HeapState struct {
	heapEnd uint64
	free    []block
	allocs  uint64
	frees   uint64
	inUse   uint64
	peak    uint64
	meta    uint64
}

// Snapshot captures the allocator's current bookkeeping.
func (a *Allocator) Snapshot() HeapState {
	return HeapState{
		heapEnd: a.heapEnd,
		free:    append([]block(nil), a.free...),
		allocs:  a.Allocs,
		frees:   a.Frees,
		inUse:   a.InUse,
		peak:    a.Peak,
		meta:    a.Meta,
	}
}

// Restore rewinds the allocator to a captured HeapState. The caller
// must have restored the backing instance from the matching snapshot
// first, exactly as Reset assumes a re-zeroed memory.
func (a *Allocator) Restore(s HeapState) {
	a.heapEnd = s.heapEnd
	a.free = append(a.free[:0], s.free...)
	a.Allocs, a.Frees = s.allocs, s.frees
	a.InUse, a.Peak, a.Meta = s.inUse, s.peak, s.meta
}

// Hardened reports whether allocations are tagged.
func (a *Allocator) Hardened() bool { return a.hardened }

// HeapBytes returns the total bytes the heap has claimed.
func (a *Allocator) HeapBytes() uint64 { return a.heapEnd - a.heapStart }

// align16 rounds n up to a multiple of 16.
func align16(n uint64) uint64 { return (n + 15) &^ 15 }

// Malloc allocates size bytes and returns the (tagged) payload pointer.
func (a *Allocator) Malloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 16
	}
	payload := align16(size)
	total := HeaderSize + payload

	hdr, ok := a.takeFree(total)
	if !ok {
		var err error
		hdr, err = a.extend(total)
		if err != nil {
			return 0, err
		}
	}
	if err := a.writeHeader(hdr, payload, false); err != nil {
		return 0, err
	}
	a.Allocs++
	a.InUse += payload
	a.Meta += HeaderSize
	if a.InUse > a.Peak {
		a.Peak = a.InUse
	}
	p := hdr + HeaderSize
	if !a.hardened {
		return p, nil
	}
	tagged, err := a.inst.HostSegmentNew(p, payload)
	if err != nil {
		return 0, fmt.Errorf("alloc: tagging allocation: %w", err)
	}
	return tagged, nil
}

// Calloc allocates zeroed memory for n items of itemSize bytes.
func (a *Allocator) Calloc(n, itemSize uint64) (uint64, error) {
	if itemSize != 0 && n > (1<<62)/itemSize {
		return 0, ErrOutOfMemory
	}
	size := n * itemSize
	p, err := a.Malloc(size)
	if err != nil {
		return 0, err
	}
	if !a.hardened { // hardened path zeroes via segment.new already
		if err := a.inst.ZeroBytes(ptrlayout.Address(p), align16(size)); err != nil {
			return 0, err
		}
	}
	return p, nil
}

// Free releases an allocation; under Cage this retags the segment so
// dangling pointers fault (temporal safety).
func (a *Allocator) Free(ptr uint64) error {
	if ptr == 0 {
		return nil
	}
	addr := ptrlayout.Address(ptr)
	hdr := addr - HeaderSize
	payload, free, err := a.readHeader(hdr)
	if err != nil {
		return err
	}
	if free {
		if a.hardened {
			// Cage catches the double free deterministically: the
			// pointer's tag no longer owns the segment (Fig. 11 eq. 10).
			return fmt.Errorf("%w: double free at %#x", ErrInvalidFree, addr)
		}
		// Baseline dlmalloc behaviour: a double free silently corrupts
		// the free list, letting a later malloc return an overlapping
		// block (the CVE-2019-11932 exploitation pattern). Emulate it.
		a.insertFree(block{addr: hdr, size: HeaderSize + payload})
		return nil
	}
	if a.hardened {
		if err := a.inst.HostSegmentFree(ptr, payload); err != nil {
			return err
		}
	}
	if err := a.writeHeader(hdr, payload, true); err != nil {
		return err
	}
	a.Frees++
	a.InUse -= payload
	a.Meta -= HeaderSize
	a.insertFree(block{addr: hdr, size: HeaderSize + payload})
	return nil
}

// Realloc resizes an allocation, moving it if needed.
func (a *Allocator) Realloc(ptr uint64, newSize uint64) (uint64, error) {
	if ptr == 0 {
		return a.Malloc(newSize)
	}
	if newSize == 0 {
		return 0, a.Free(ptr)
	}
	addr := ptrlayout.Address(ptr)
	oldPayload, free, err := a.readHeader(addr - HeaderSize)
	if err != nil {
		return 0, err
	}
	if free {
		return 0, fmt.Errorf("%w: realloc of freed pointer %#x", ErrInvalidFree, addr)
	}
	if align16(newSize) <= oldPayload {
		return ptr, nil // shrink in place
	}
	np, err := a.Malloc(newSize)
	if err != nil {
		return 0, err
	}
	if err := a.inst.CopyBytes(ptrlayout.Address(np), addr, oldPayload); err != nil {
		return 0, err
	}
	if err := a.Free(ptr); err != nil {
		return 0, err
	}
	return np, nil
}

// UsableSize returns the payload size backing ptr.
func (a *Allocator) UsableSize(ptr uint64) (uint64, error) {
	payload, _, err := a.readHeader(ptrlayout.Address(ptr) - HeaderSize)
	return payload, err
}

// takeFree pops a first-fit free block of at least total bytes,
// splitting the remainder back onto the list.
func (a *Allocator) takeFree(total uint64) (uint64, bool) {
	for i, b := range a.free {
		if b.size < total {
			continue
		}
		rest := b.size - total
		if rest >= HeaderSize+16 {
			a.free[i] = block{addr: b.addr + total, size: rest}
			// Keep the remainder header coherent for diagnostics.
			_ = a.writeHeader(b.addr+total, rest-HeaderSize, true)
		} else {
			total = b.size // absorb the sliver
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
		return b.addr, true
	}
	return 0, false
}

// extend claims fresh space at the break, growing memory when needed.
func (a *Allocator) extend(total uint64) (uint64, error) {
	need := a.heapEnd + total
	if need > a.inst.MemorySize() {
		pages := (need - a.inst.MemorySize() + wasm.PageSize - 1) / wasm.PageSize
		if old := a.inst.GrowMemory(pages); old == ^uint64(0) {
			return 0, ErrOutOfMemory
		}
	}
	hdr := a.heapEnd
	a.heapEnd += total
	return hdr, nil
}

// insertFree adds a block and coalesces address-adjacent neighbours.
func (a *Allocator) insertFree(nb block) {
	// Insert sorted by address.
	i := 0
	for i < len(a.free) && a.free[i].addr < nb.addr {
		i++
	}
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = nb
	// Coalesce with successor.
	if i+1 < len(a.free) && a.free[i].addr+a.free[i].size == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Coalesce with predecessor.
	if i > 0 && a.free[i-1].addr+a.free[i-1].size == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// writeHeader stores the untagged metadata slot (Fig. 8a). The slot
// encodes the payload size, a free flag, and a magic value so corrupt
// frees are detected even unhardened.
func (a *Allocator) writeHeader(hdr, payload uint64, free bool) error {
	word := headerMagic | payload<<1
	if free {
		word |= 1
	}
	if err := a.inst.WriteU64(hdr, word); err != nil {
		return err
	}
	return a.inst.WriteU64(hdr+8, ^word) // checksum word
}

// readHeader loads and verifies a metadata slot.
func (a *Allocator) readHeader(hdr uint64) (payload uint64, free bool, err error) {
	if hdr < a.heapStart || hdr >= a.heapEnd {
		return 0, false, fmt.Errorf("%w: pointer outside heap", ErrInvalidFree)
	}
	word, err := a.inst.ReadU64(hdr)
	if err != nil {
		return 0, false, err
	}
	check, err := a.inst.ReadU64(hdr + 8)
	if err != nil {
		return 0, false, err
	}
	if word&0xFFFF_0000_0000_0000 != headerMagic || check != ^word {
		return 0, false, fmt.Errorf("%w: corrupt allocator metadata at %#x", ErrInvalidFree, hdr)
	}
	return (word &^ headerMagic) >> 1, word&1 == 1, nil
}

// MetadataOverhead reports live metadata bytes per live payload byte,
// used by the §7.3 memory-overhead accounting.
func (a *Allocator) MetadataOverhead() float64 {
	if a.InUse == 0 {
		return 0
	}
	return float64(a.Meta) / float64(a.InUse)
}

// TagStorageOverhead is MTE's architectural tag-storage cost: 4 bits per
// 16-byte granule = 1/32 of memory (paper §7.3).
func TagStorageOverhead() float64 { return 1.0 / (2 * mte.GranuleSize) }

// HostModule is the import-module name for the libc host functions; the
// wasm32 baseline imports the 32-bit-pointer surface from HostModule32.
const (
	HostModule   = "cage_libc"
	HostModule32 = "cage_libc32"
)

// Provider locates the instance's hardened allocator from the host
// data attached to it (exec.Config.HostData / HostContext.Data). The
// allocator is created after instantiation — it needs the instance's
// __heap_base — so providers return nil until it is bound.
type Provider interface {
	HeapAllocator() *Allocator
}

// Host is the minimal Provider: embedders put a *Host in
// exec.Config.HostData and fill A once the allocator exists.
type Host struct {
	A *Allocator
}

// HeapAllocator implements Provider.
func (h *Host) HeapAllocator() *Allocator { return h.A }

// allocatorOf resolves the calling instance's allocator.
func allocatorOf(hc *exec.HostContext) (*Allocator, error) {
	if p, ok := hc.Data().(Provider); ok {
		if a := p.HeapAllocator(); a != nil {
			return a, nil
		}
	}
	return nil, errors.New("alloc: instance has no allocator bound (HostData must implement alloc.Provider)")
}

// HostModules builds the hardened-libc host surface — malloc / calloc /
// realloc / free in both the wasm64 (HostModule) and ILP32 wasm32
// (HostModule32) ABI variants — on the typed host-module builder. The
// functions reach the per-instance allocator through the host data, so
// the modules themselves are stateless and one resolved import table
// can serve every pooled instance.
func HostModules() []*exec.HostModule {
	return []*exec.HostModule{hostModule64(), hostModule32()}
}

func hostModule64() *exec.HostModule {
	hm := exec.NewHostModule(HostModule)
	exec.Func1(hm, "malloc", func(hc *exec.HostContext, n uint64) (uint64, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		p, err := a.Malloc(n)
		if err != nil {
			return 0, nil // C malloc reports failure as NULL
		}
		return p, nil
	})
	exec.Func2(hm, "calloc", func(hc *exec.HostContext, n, size uint64) (uint64, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		p, err := a.Calloc(n, size)
		if err != nil {
			return 0, nil
		}
		return p, nil
	})
	exec.Func2(hm, "realloc", func(hc *exec.HostContext, p, n uint64) (uint64, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		q, err := a.Realloc(p, n)
		if err != nil {
			return 0, nil
		}
		return q, nil
	})
	exec.Void1(hm, "free", func(hc *exec.HostContext, p uint64) error {
		a, err := allocatorOf(hc)
		if err != nil {
			return err
		}
		// Invalid frees are memory-safety violations: trap, exactly
		// as segment.free would (Fig. 11 eq. 10).
		return a.Free(p)
	})
	return hm
}

// hostModule32 is the ILP32 ABI of wasi-libc on wasm32: pointers and
// sizes are i32.
func hostModule32() *exec.HostModule {
	hm := exec.NewHostModule(HostModule32).Ptr32()
	exec.Func1(hm, "malloc", func(hc *exec.HostContext, n uint32) (uint32, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		p, err := a.Malloc(uint64(n))
		if err != nil {
			return 0, nil
		}
		return uint32(p), nil
	})
	exec.Func2(hm, "calloc", func(hc *exec.HostContext, n, size uint32) (uint32, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		p, err := a.Calloc(uint64(n), uint64(size))
		if err != nil {
			return 0, nil
		}
		return uint32(p), nil
	})
	exec.Func2(hm, "realloc", func(hc *exec.HostContext, p, n uint32) (uint32, error) {
		a, err := allocatorOf(hc)
		if err != nil {
			return 0, err
		}
		q, err := a.Realloc(uint64(p), uint64(n))
		if err != nil {
			return 0, nil
		}
		return uint32(q), nil
	})
	exec.Void1(hm, "free", func(hc *exec.HostContext, p uint32) error {
		a, err := allocatorOf(hc)
		if err != nil {
			return err
		}
		return a.Free(uint64(p))
	})
	return hm
}
