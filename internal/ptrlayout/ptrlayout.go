package ptrlayout

import "math/bits"

// Field boundaries shared by every layout.
const (
	// AddressBits is the number of low bits that index memory (48-bit VA).
	AddressBits = 48
	// AddressMask extracts the virtual address portion of a pointer.
	AddressMask = (uint64(1) << AddressBits) - 1
	// KernelBit selects kernel (1) vs user (0) addresses.
	KernelBit = 55
	// MTETagShift is the bit position of the 4-bit MTE allocation tag.
	MTETagShift = 56
	// MTETagBits is the width of the MTE allocation tag.
	MTETagBits = 4
	// MTETagMask covers bits 59..56.
	MTETagMask = uint64(0xF) << MTETagShift
)

// Layout describes which upper-pointer bits carry a PAC signature for a
// given hardware/OS configuration.
type Layout struct {
	// Name identifies the configuration, e.g. "linux+mte+pac".
	Name string
	// MTE reports whether bits 59..56 are reserved for the memory tag.
	MTE bool
	// PACMask has a 1 in every bit position that carries PAC signature
	// material.
	PACMask uint64
}

// Predefined layouts matching paper Fig. 3.
var (
	// NoExtension uses no upper-bit metadata at all.
	NoExtension = Layout{Name: "none", MTE: false, PACMask: 0}

	// MTEOnly reserves only the tag nibble.
	MTEOnly = Layout{Name: "mte", MTE: true, PACMask: 0}

	// PACOnly places the signature in bits 63..56 and 54..48 (15 bits,
	// TBI disabled), the widest Linux configuration without MTE.
	PACOnly = Layout{
		Name:    "pac",
		MTE:     false,
		PACMask: (uint64(0xFF) << 56) | (uint64(0x7F) << 48),
	}

	// MTEAndPAC is the Linux layout with both features: PAC occupies bits
	// 63..60 and 54..49 (10 bits); MTE keeps 59..56; bit 55 stays the
	// kernel/user selector; bits 48 remains address material per TBI rules.
	MTEAndPAC = Layout{
		Name:    "mte+pac",
		MTE:     true,
		PACMask: (uint64(0xF) << 60) | (uint64(0x3F) << 49),
	}
)

// Address returns the 48-bit virtual-address portion of p.
func Address(p uint64) uint64 { return p & AddressMask }

// Tag extracts the 4-bit MTE allocation tag from p.
func Tag(p uint64) uint8 { return uint8((p & MTETagMask) >> MTETagShift) }

// WithTag returns p with its MTE tag nibble replaced by tag.
func WithTag(p uint64, tag uint8) uint64 {
	return (p &^ MTETagMask) | (uint64(tag&0xF) << MTETagShift)
}

// StripTag clears the MTE tag nibble of p.
func StripTag(p uint64) uint64 { return p &^ MTETagMask }

// PACBits returns how many signature bits layout l provides.
func (l Layout) PACBits() int {
	return bits.OnesCount64(l.PACMask)
}

// The PAC field is a few contiguous runs of bits (two for MTEAndPAC), so
// Insert and Extract move it run by run: each step peels the lowest run
// off the mask with two trailing-zero counts and shifts the next
// slice of the signature into place. The runs are derived from PACMask
// on every call rather than cached, so a Layout stays a plain value.

// Insert scatters the low PACBits() bits of sig into the PAC field of p.
func (l Layout) Insert(p, sig uint64) uint64 {
	out := p &^ l.PACMask
	for m := l.PACMask; m != 0; {
		lo := uint(bits.TrailingZeros64(m))
		n := uint(bits.TrailingZeros64(^(m >> lo)))
		run := (uint64(1)<<n - 1) << lo
		out |= sig << lo & run
		sig >>= n
		m &^= run
	}
	return out
}

// Extract gathers the PAC field of p into a compact value (inverse of
// Insert).
func (l Layout) Extract(p uint64) uint64 {
	var sig uint64
	at := uint(0) // signature bits gathered so far
	for m := l.PACMask; m != 0; {
		lo := uint(bits.TrailingZeros64(m))
		n := uint(bits.TrailingZeros64(^(m >> lo)))
		run := (uint64(1)<<n - 1) << lo
		sig |= (p & run) >> lo << at
		at += n
		m &^= run
	}
	return sig
}
