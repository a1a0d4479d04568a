//go:build cagecow && linux && (amd64 || arm64)

package exec

import (
	"syscall"
	"unsafe"
)

// snapshotRestoreMode: this build restores snapshots by mapping a
// MAP_PRIVATE copy-on-write view of a sealed memfd image.
const snapshotRestoreMode = "cow"

// Linux memfd/seal constants (the frozen syscall package predates
// memfd_create, so the syscall number lives in cow_sysnum_*.go).
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1024 + 9 // F_ADD_SEALS
	sealSeal        = 0x1
	sealShrink      = 0x2
	sealGrow        = 0x4
	sealWrite       = 0x8
)

// cowImage is a sealed memfd holding the frozen snapshot image — the
// memory bytes followed by the tag bytes. Every restore maps a private
// (MAP_PRIVATE) view: forks share the clean pages read-only and the
// kernel copies only what each fork dirties, so restoring a multi-MiB
// heap costs one mmap, not one memcpy.
type cowImage struct {
	fd     int
	memLen int
	tagLen int
}

// newCOWImage materializes s's image, or returns nil when the kernel
// refuses anything (the caller then falls back to copy restores — a
// snapshot never fails just because COW is unavailable). Of the memory
// only the spans are written: the rest of the file is a hole, which
// reads as the zeros the image has there. The tag region has no such
// default — its pristine value is the sandbox tag, not zero — so it is
// written whole from tags, the capturing instance's live tag array:
// the one part of a capture still O(memory) on this build.
func newCOWImage(s *Snapshot, tags []uint8) *cowImage {
	name := []byte("cage-snapshot\x00")
	fd, _, errno := syscall.Syscall(sysMemfdCreate,
		uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return nil
	}
	img := &cowImage{fd: int(fd), memLen: s.memLen, tagLen: len(tags)}
	ok := syscall.Ftruncate(img.fd, int64(img.memLen+img.tagLen)) == nil && img.writeAll(tags, int64(s.memLen))
	for _, sp := range s.spans {
		ok = ok && img.writeAll(s.mem[sp.at:sp.at+sp.end-sp.off], int64(sp.off))
	}
	if !ok {
		img.close()
		return nil
	}
	// Seal the image shut: it can never shrink, grow, or be written
	// again, so every fork maps exactly the frozen state. MAP_PRIVATE
	// views remain writable — private dirty pages never reach the file.
	syscall.Syscall(syscall.SYS_FCNTL, fd, fAddSeals,
		sealSeal|sealShrink|sealGrow|sealWrite)
	return img
}

func (c *cowImage) writeAll(b []byte, off int64) bool {
	for len(b) > 0 {
		n, err := syscall.Pwrite(c.fd, b, off)
		if err != nil || n <= 0 {
			return false
		}
		b = b[n:]
		off += int64(n)
	}
	return true
}

// mapView maps one private copy-on-write view of the image. mem and
// tags alias a single mapping; unmap releases it and must only run once
// neither slice is referenced anymore.
func (c *cowImage) mapView() (mem, tags []byte, unmap func(), err error) {
	total := c.memLen + c.tagLen
	view, err := syscall.Mmap(c.fd, 0, total,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, nil, err
	}
	return view[:c.memLen:c.memLen], view[c.memLen:total:total],
		func() { _ = syscall.Munmap(view) }, nil
}

// close releases the backing memfd. Existing private views survive; new
// mapViews fail.
func (c *cowImage) close() {
	if c != nil && c.fd >= 0 {
		_ = syscall.Close(c.fd)
		c.fd = -1
	}
}
