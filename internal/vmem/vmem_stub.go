//go:build !linux || !(amd64 || arm64)

package vmem

import "errors"

// ErrUnsupported is returned by Map on platforms without the guard
// backend (non-Linux, or a 32-bit address space).
var ErrUnsupported = errors.New("vmem: guard-region mappings unavailable on this platform (need 64-bit Linux)")

// Mapping is the stub guard-region handle; never instantiated in this
// build.
type Mapping struct{}

// Supported reports whether guard mappings exist in this build: no.
func Supported() bool { return false }

// Map always fails in this build.
func Map(commit uint64) (*Mapping, error) { return nil, ErrUnsupported }

// Bytes is unreachable in this build (Map never succeeds).
func (m *Mapping) Bytes() []byte { return nil }

// Committed is unreachable in this build.
func (m *Mapping) Committed() uint64 { return 0 }

// SetCommitted is unreachable in this build.
func (m *Mapping) SetCommitted(n uint64) error { return ErrUnsupported }

// Owns is unreachable in this build.
func (m *Mapping) Owns(addr uintptr) bool { return false }

// GuestAddr is unreachable in this build.
func (m *Mapping) GuestAddr(addr uintptr) uint64 { return 0 }

// Unmap is unreachable in this build.
func (m *Mapping) Unmap() error { return nil }
