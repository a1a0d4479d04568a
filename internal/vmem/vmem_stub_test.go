//go:build !linux || !(amd64 || arm64)

package vmem

import (
	"errors"
	"testing"
)

func TestStubIsUnsupported(t *testing.T) {
	if Supported() {
		t.Error("Supported() = true on a build without the guard backend")
	}
	m, err := Map(0)
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("Map(0) = %v, %v; want ErrUnsupported", m, err)
	}
}
