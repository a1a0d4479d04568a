//go:build linux && (amd64 || arm64)

package vmem

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// faultAddr reads m.Bytes()[off] and returns the address the MMU
// faulted on, or ok=false when the read succeeded.
func faultAddr(m *Mapping, off uint64) (addr uintptr, ok bool) {
	old := debug.SetPanicOnFault(true)
	defer func() {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			f, isFault := r.(interface{ Addr() uintptr })
			if !isFault {
				panic(r)
			}
			addr, ok = f.Addr(), true
		}
	}()
	sink = m.Bytes()[off]
	return 0, false
}

var sink byte

func mustMap(t *testing.T, commit uint64) *Mapping {
	t.Helper()
	if !Supported() {
		t.Skip("kernel refuses the guard reservation")
	}
	m, err := Map(commit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Unmap() })
	return m
}

func TestMapZeroCommitsNothing(t *testing.T) {
	m := mustMap(t, 0)
	if m.Committed() != 0 {
		t.Errorf("Committed() = %d after Map(0)", m.Committed())
	}
	if got := uint64(len(m.Bytes())); got != ReservationSize {
		t.Errorf("reservation is %d bytes, want %d", got, ReservationSize)
	}
	if _, faulted := faultAddr(m, 0); !faulted {
		t.Error("byte 0 of an empty mapping is readable")
	}
}

// TestCommitContract walks the package doc's contract: growth exposes
// zero pages, and a page that was written, decommitted and committed
// again reads zero.
func TestCommitContract(t *testing.T) {
	page := uint64(syscall.Getpagesize())
	m := mustMap(t, page)
	if err := m.SetCommitted(3 * page); err != nil {
		t.Fatal(err)
	}
	if m.Committed() != 3*page {
		t.Fatalf("Committed() = %d, want %d", m.Committed(), 3*page)
	}
	mem := m.Bytes()
	for i, b := range mem[:3*page] {
		if b != 0 {
			t.Fatalf("fresh byte %d = %#x, want 0", i, b)
		}
	}
	mem[0], mem[2*page+7] = 0xaa, 0xbb
	if err := m.SetCommitted(page); err != nil {
		t.Fatal(err)
	}
	if _, faulted := faultAddr(m, 2*page+7); !faulted {
		t.Error("decommitted page is still readable")
	}
	if err := m.SetCommitted(3 * page); err != nil {
		t.Fatal(err)
	}
	if mem[2*page+7] != 0 {
		t.Errorf("regrown byte = %#x, want 0: shrink must discard the page", mem[2*page+7])
	}
	if mem[0] != 0xaa {
		t.Errorf("byte in the kept prefix = %#x, want 0xaa", mem[0])
	}
}

// TestFaultClassification: a read past Committed() faults at an address
// the mapping owns, and GuestAddr gives back the guest offset — what
// the executor's recover path needs to turn the fault into a trap.
func TestFaultClassification(t *testing.T) {
	page := uint64(syscall.Getpagesize())
	m := mustMap(t, page)
	for _, off := range []uint64{page, GuestLimit - 1, ReservationSize - 1} {
		addr, faulted := faultAddr(m, off)
		if !faulted {
			t.Fatalf("read at %#x past the committed prefix did not fault", off)
		}
		if !m.Owns(addr) {
			t.Errorf("fault at %#x: mapping disowns address %#x", off, addr)
		}
		if got := m.GuestAddr(addr); got != off {
			t.Errorf("GuestAddr = %#x, want %#x", got, off)
		}
	}
	if m.Owns(uintptr(0)) {
		t.Error("mapping owns the nil page")
	}
}

func TestCommitAboveGuestLimit(t *testing.T) {
	if m, err := Map(GuestLimit + 1); err == nil {
		m.Unmap()
		t.Error("Map above GuestLimit succeeded")
	}
	m := mustMap(t, 0)
	if err := m.SetCommitted(GuestLimit + 1); err == nil {
		t.Error("SetCommitted above GuestLimit succeeded")
	}
	if m.Committed() != 0 {
		t.Errorf("failed commit moved Committed() to %d", m.Committed())
	}
}

func TestUnmapIdempotent(t *testing.T) {
	m := mustMap(t, 0)
	if err := m.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(); err != nil {
		t.Errorf("second Unmap: %v", err)
	}
}
