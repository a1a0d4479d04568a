// The 4 GiB+ reservation needs a 64-bit address space; 32-bit Linux
// targets use the stub like every other platform.
//go:build linux && (amd64 || arm64)

package vmem

import (
	"fmt"
	"sync"
	"syscall"
	"unsafe"
)

// Mapping is one live guard-region reservation; see the package docs
// for the commit/decommit contract.
type Mapping struct {
	region    []byte // the full reservation, PROT_NONE past committed
	committed uint64
}

var (
	probeOnce sync.Once
	probeOK   bool
)

// Supported reports whether the kernel grants PROT_NONE reservations
// of the guard size. Probed once; the result is constant per process.
func Supported() bool {
	probeOnce.Do(func() {
		m, err := Map(0)
		if err == nil {
			probeOK = m.Unmap() == nil
		}
	})
	return probeOK
}

// Map reserves ReservationSize bytes of PROT_NONE address space and
// commits the first commit bytes read-write.
func Map(commit uint64) (*Mapping, error) {
	if commit > GuestLimit {
		return nil, fmt.Errorf("vmem: commit %d exceeds guest limit %d", commit, GuestLimit)
	}
	region, err := syscall.Mmap(-1, 0, int(ReservationSize),
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("vmem: reserve %d bytes: %w", ReservationSize, err)
	}
	m := &Mapping{region: region}
	if err := m.SetCommitted(commit); err != nil {
		m.Unmap()
		return nil, err
	}
	return m, nil
}

// Bytes returns the full reservation. Indexing past Committed() is the
// point: it faults in the MMU instead of in a Go bounds check.
func (m *Mapping) Bytes() []byte { return m.region }

// Committed returns the size of the readable-writable prefix.
func (m *Mapping) Committed() uint64 { return m.committed }

// SetCommitted grows or shrinks the committed prefix to exactly n
// bytes (page-rounded). Growth exposes fresh zero pages; shrink
// discards the tail's pages and returns the range to PROT_NONE.
func (m *Mapping) SetCommitted(n uint64) error {
	if n > GuestLimit {
		return fmt.Errorf("vmem: commit %d exceeds guest limit %d", n, GuestLimit)
	}
	page := uint64(syscall.Getpagesize())
	want := (n + page - 1) / page * page
	have := (m.committed + page - 1) / page * page
	switch {
	case want > have:
		if err := mprotect(m.region[have:want], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			return fmt.Errorf("vmem: commit [%d,%d): %w", have, want, err)
		}
	case want < have:
		// Discard first so the pages come back zeroed if ever
		// re-committed, then seal the range.
		if err := madviseFree(m.region[want:have]); err != nil {
			return fmt.Errorf("vmem: decommit [%d,%d): %w", want, have, err)
		}
		if err := mprotect(m.region[want:have], syscall.PROT_NONE); err != nil {
			return fmt.Errorf("vmem: seal [%d,%d): %w", want, have, err)
		}
	}
	m.committed = n
	return nil
}

// Owns reports whether addr falls inside the reservation — the
// executor's fault classifier.
func (m *Mapping) Owns(addr uintptr) bool {
	base := uintptr(unsafe.Pointer(&m.region[0]))
	return addr >= base && addr < base+uintptr(len(m.region))
}

// GuestAddr translates a faulting host address to the guest offset it
// named, for trap messages.
func (m *Mapping) GuestAddr(addr uintptr) uint64 {
	return uint64(addr - uintptr(unsafe.Pointer(&m.region[0])))
}

// Unmap releases the reservation. The mapping (and every slice of
// Bytes) must not be touched afterwards.
func (m *Mapping) Unmap() error {
	if m.region == nil {
		return nil
	}
	region := m.region
	m.region = nil
	m.committed = 0
	return syscall.Munmap(region)
}

func mprotect(b []byte, prot int) error {
	if len(b) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MPROTECT,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(prot))
	if errno != 0 {
		return errno
	}
	return nil
}

func madviseFree(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MADVISE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MADV_DONTNEED))
	if errno != 0 {
		return errno
	}
	return nil
}
