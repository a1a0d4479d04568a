// Package pac simulates Arm Pointer Authentication (PAC) as Cage uses it
// (paper §2.3, §4.2, §6.3).
//
// PAC signs a pointer with a keyed MAC over the pointer value and a
// user-supplied 64-bit modifier, placing the truncated signature in the
// unused upper bits (layout per ptrlayout, paper Fig. 3). Signed pointers
// must be authenticated before use: authentication recomputes the MAC,
// and on success strips the signature. With FEAT_FPAC (as on the Tensor
// G3) a failed authentication traps immediately; without it the hardware
// instead produces a canonically-invalid pointer that faults on
// dereference.
//
// The hardware uses the QARMA block cipher; the simulation uses
// SipHash-2-4 with a 128-bit key, which preserves the property Cage
// relies on: signatures cannot be forged without the key, and a signature
// minted under one key (instance) never validates under another.
package pac

import (
	"errors"

	"cage/internal/ptrlayout"
)

// ErrAuthFailed is returned by Auth when the signature does not match
// and FEAT_FPAC is enabled (trap-on-failure).
var ErrAuthFailed = errors.New("pac: pointer authentication failed")

// Key is a 128-bit PAC key. Arm defines five (IA, IB, DA, DB, GA); Cage
// only needs one data key per process, with per-instance modifiers.
type Key struct {
	k0, k1 uint64
}

// KeyFromSeed derives a deterministic key, for reproducible tests and
// benchmarks.
func KeyFromSeed(seed uint64) Key {
	x := seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x * 0x2545F4914F6CDD1D
	}
	if x == 0 {
		x = 0x6a09e667f3bcc909
	}
	return Key{k0: next(), k1: next()}
}

// Config selects the pointer layout and failure behaviour.
type Config struct {
	// Layout determines which bits carry the signature.
	Layout ptrlayout.Layout
	// FPAC, when true, makes Auth return ErrAuthFailed on mismatch
	// (FEAT_FPAC). When false, Auth returns a poisoned pointer with the
	// top signature bit flipped, which faults on dereference.
	FPAC bool
}

// DefaultConfig matches the paper's evaluation platform: Linux layout
// with both MTE and PAC, FEAT_FPAC enabled.
var DefaultConfig = Config{Layout: ptrlayout.MTEAndPAC, FPAC: true}

// sipRound is one SipHash round.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = v1<<13 | v1>>51
	v1 ^= v0
	v0 = v0<<32 | v0>>32
	v2 += v3
	v3 = v3<<16 | v3>>48
	v3 ^= v2
	v0 += v3
	v3 = v3<<21 | v3>>43
	v3 ^= v0
	v2 += v1
	v1 = v1<<17 | v1>>47
	v1 ^= v2
	v2 = v2<<32 | v2>>32
	return v0, v1, v2, v3
}

// mac computes SipHash-2-4 over the two 64-bit words (ptr, modifier).
func (k Key) mac(ptr, modifier uint64) uint64 {
	v0 := k.k0 ^ 0x736f6d6570736575
	v1 := k.k1 ^ 0x646f72616e646f6d
	v2 := k.k0 ^ 0x6c7967656e657261
	v3 := k.k1 ^ 0x7465646279746573
	for _, m := range [2]uint64{ptr, modifier} {
		v3 ^= m
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
	}
	// Length block: 16 bytes.
	v3 ^= 16 << 56
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= 16 << 56
	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v0 ^ v1 ^ v2 ^ v3
}

// signable clears the signature field so signing is independent of any
// stale signature bits, but keeps the MTE tag (which rides along in a
// signed pointer, outside the PAC field).
func (c Config) signable(ptr uint64) uint64 {
	return ptr &^ c.Layout.PACMask
}

// Sign computes the signature of ptr under key and modifier and inserts
// it into the PAC field (the pacda instruction; pacdza is Sign with
// modifier 0).
func (c Config) Sign(ptr, modifier uint64, key Key) uint64 {
	base := c.signable(ptr)
	sig := key.mac(base, modifier)
	return c.Layout.Insert(base, sig)
}

// Auth validates the signature of ptr (autda / autdza for modifier 0).
// On success it returns the pointer with the signature stripped. On
// failure it either returns ErrAuthFailed (FPAC) or a poisoned pointer
// that cannot be dereferenced.
func (c Config) Auth(ptr, modifier uint64, key Key) (uint64, error) {
	base := c.signable(ptr)
	want := c.Layout.Extract(c.Layout.Insert(0, key.mac(base, modifier)))
	got := c.Layout.Extract(ptr)
	if want == got {
		return base, nil
	}
	if c.FPAC {
		return 0, ErrAuthFailed
	}
	// Non-FPAC: flip a high bit so the pointer is non-canonical and
	// traps on use, mirroring the architectural error pattern.
	return base ^ (uint64(1) << 62), nil
}

// SigBits reports the number of signature bits the configuration offers.
func (c Config) SigBits() int { return c.Layout.PACBits() }
