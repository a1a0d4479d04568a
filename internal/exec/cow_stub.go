//go:build !(cagecow && linux && (amd64 || arm64))

package exec

import "errors"

// snapshotRestoreMode: without the cagecow build tag (or off Linux)
// snapshots install by copying their spans onto pristine storage.
const snapshotRestoreMode = "copy"

// cowImage is the stub image: never materialized, never mappable. The
// install path checks for a nil image and falls back to copying, so
// this build compiles out the mmap machinery entirely.
type cowImage struct{}

func newCOWImage(s *Snapshot, tags []uint8) *cowImage { return nil }

func (c *cowImage) mapView() (mem, tags []byte, unmap func(), err error) {
	return nil, nil, nil, errors.ErrUnsupported
}

func (c *cowImage) close() {}
