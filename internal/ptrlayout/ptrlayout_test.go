package ptrlayout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressMasksMetadata(t *testing.T) {
	p := uint64(0xFFFF_8000_1234_5678)
	if got, want := Address(p), uint64(0x8000_1234_5678); got != want {
		t.Errorf("Address(%#x) = %#x, want %#x", p, got, want)
	}
}

func TestTagRoundTrip(t *testing.T) {
	for tag := uint8(0); tag < 16; tag++ {
		p := WithTag(0x1234_5678, tag)
		if got := Tag(p); got != tag {
			t.Errorf("Tag(WithTag(p, %d)) = %d", tag, got)
		}
		if got := Address(p); got != 0x1234_5678 {
			t.Errorf("WithTag changed address bits: %#x", got)
		}
	}
}

func TestStripTag(t *testing.T) {
	p := WithTag(0xABC0, 7)
	if got := StripTag(p); got != 0xABC0 {
		t.Errorf("StripTag = %#x, want %#x", got, 0xABC0)
	}
}

func TestPACBitCounts(t *testing.T) {
	// Paper Fig. 3: PAC-only layout provides 15 bits on Linux (bits
	// 63..56 and 54..48); with MTE enabled it shrinks to 10 bits
	// (63..60 and 54..49).
	if got := PACOnly.PACBits(); got != 15 {
		t.Errorf("PACOnly.PACBits() = %d, want 15", got)
	}
	if got := MTEAndPAC.PACBits(); got != 10 {
		t.Errorf("MTEAndPAC.PACBits() = %d, want 10", got)
	}
	if got := NoExtension.PACBits(); got != 0 {
		t.Errorf("NoExtension.PACBits() = %d, want 0", got)
	}
}

func TestPACFieldDoesNotOverlapMTEOrKernelBit(t *testing.T) {
	if MTEAndPAC.PACMask&MTETagMask != 0 {
		t.Error("MTE+PAC layout: PAC field overlaps the MTE tag nibble")
	}
	if MTEAndPAC.PACMask&(1<<KernelBit) != 0 {
		t.Error("MTE+PAC layout: PAC field overlaps the kernel/user bit")
	}
	if PACOnly.PACMask&(1<<KernelBit) != 0 {
		t.Error("PAC-only layout: PAC field overlaps the kernel/user bit")
	}
}

func TestInsertExtractRoundTrip(t *testing.T) {
	f := func(p, sig uint64) bool {
		for _, l := range []Layout{PACOnly, MTEAndPAC} {
			mask := uint64(1)<<l.PACBits() - 1
			signed := l.Insert(p, sig)
			if l.Extract(signed) != sig&mask {
				return false
			}
			// Non-PAC bits must be preserved.
			if signed&^l.PACMask != p&^l.PACMask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertPreservesMTETag(t *testing.T) {
	p := WithTag(0x4000, 0xB)
	signed := MTEAndPAC.Insert(p, 0x3FF)
	if Tag(signed) != 0xB {
		t.Errorf("Insert clobbered MTE tag: %#x", Tag(signed))
	}
}

// insertOracle and extractOracle are the bit-at-a-time definitions of
// Insert and Extract: walk all 64 positions, moving signature bit k to
// the k-th set bit of the mask.
func insertOracle(l Layout, p, sig uint64) uint64 {
	out := p &^ l.PACMask
	bit := 0
	for i := 0; i < 64; i++ {
		if l.PACMask&(uint64(1)<<i) != 0 {
			if sig&(uint64(1)<<bit) != 0 {
				out |= uint64(1) << i
			}
			bit++
		}
	}
	return out
}

func extractOracle(l Layout, p uint64) uint64 {
	var sig uint64
	bit := 0
	for i := 0; i < 64; i++ {
		if l.PACMask&(uint64(1)<<i) != 0 {
			if p&(uint64(1)<<i) != 0 {
				sig |= uint64(1) << bit
			}
			bit++
		}
	}
	return sig
}

// TestInsertExtractMatchOracle: the run-by-run Insert and Extract are
// bit-identical to the bit-at-a-time oracle for every predefined layout
// and a few masks at the edges (a run touching bit 63, the full word,
// isolated bits), over random pointers and signatures.
func TestInsertExtractMatchOracle(t *testing.T) {
	layouts := []Layout{NoExtension, MTEOnly, PACOnly, MTEAndPAC,
		{Name: "top", PACMask: 1 << 63},
		{Name: "all", PACMask: ^uint64(0)},
		{Name: "sparse", PACMask: 0xA5A5_0000_0000_0001},
	}
	r := rand.New(rand.NewSource(1))
	for _, l := range layouts {
		for i := 0; i < 20000; i++ {
			p, sig := r.Uint64(), r.Uint64()
			if got, want := l.Insert(p, sig), insertOracle(l, p, sig); got != want {
				t.Fatalf("%s: Insert(%#x, %#x) = %#x, oracle %#x", l.Name, p, sig, got, want)
			}
			if got, want := l.Extract(p), extractOracle(l, p); got != want {
				t.Fatalf("%s: Extract(%#x) = %#x, oracle %#x", l.Name, p, got, want)
			}
		}
	}
}
