package pac

import (
	"errors"
	"testing"
	"testing/quick"

	"cage/internal/ptrlayout"
)

func TestSignAuthRoundTrip(t *testing.T) {
	key := KeyFromSeed(1)
	cfg := DefaultConfig
	ptr := uint64(0x8650)
	signed := cfg.Sign(ptr, 0, key)
	if signed == ptr {
		t.Fatal("signing did not change the pointer")
	}
	got, err := cfg.Auth(signed, 0, key)
	if err != nil {
		t.Fatalf("Auth failed on valid signature: %v", err)
	}
	if got != ptr {
		t.Errorf("Auth returned %#x, want %#x", got, ptr)
	}
}

func TestAuthRejectsWrongKey(t *testing.T) {
	cfg := DefaultConfig
	signed := cfg.Sign(0x8650, 0, KeyFromSeed(1))
	if _, err := cfg.Auth(signed, 0, KeyFromSeed(2)); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("Auth under wrong key: got %v, want ErrAuthFailed", err)
	}
}

func TestAuthRejectsWrongModifier(t *testing.T) {
	// Cage gives every instance its own modifier because PAC keys are
	// per-process (paper §6.3); a signature minted under one instance's
	// modifier must not validate under another's.
	cfg := DefaultConfig
	key := KeyFromSeed(7)
	signed := cfg.Sign(0x1234, 111, key)
	if _, err := cfg.Auth(signed, 222, key); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("cross-modifier Auth: got %v, want ErrAuthFailed", err)
	}
	if _, err := cfg.Auth(signed, 111, key); err != nil {
		t.Errorf("same-modifier Auth failed: %v", err)
	}
}

func TestAuthRejectsTamperedPointer(t *testing.T) {
	cfg := DefaultConfig
	key := KeyFromSeed(3)
	signed := cfg.Sign(0x8000, 0, key)
	tampered := signed ^ 0x10 // flip an address bit
	if _, err := cfg.Auth(tampered, 0, key); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("tampered pointer authenticated: %v", err)
	}
}

func TestNonFPACProducesPoisonedPointer(t *testing.T) {
	cfg := Config{Layout: ptrlayout.MTEAndPAC, FPAC: false}
	key := KeyFromSeed(3)
	signed := cfg.Sign(0x8000, 0, key)
	got, err := cfg.Auth(signed^0x10, 0, key)
	if err != nil {
		t.Fatalf("non-FPAC Auth must not error, got %v", err)
	}
	if got&(1<<62) == 0 {
		t.Errorf("non-FPAC failure must poison the pointer, got %#x", got)
	}
}

func TestSignPreservesMTETag(t *testing.T) {
	cfg := DefaultConfig
	key := KeyFromSeed(11)
	ptr := ptrlayout.WithTag(0x4000, 0xC)
	signed := cfg.Sign(ptr, 0, key)
	if ptrlayout.Tag(signed) != 0xC {
		t.Errorf("signing clobbered the MTE tag: %#x", ptrlayout.Tag(signed))
	}
	got, err := cfg.Auth(signed, 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if ptrlayout.Tag(got) != 0xC {
		t.Error("authentication clobbered the MTE tag")
	}
}

func TestSignAuthProperty(t *testing.T) {
	key := KeyFromSeed(99)
	cfg := DefaultConfig
	f := func(addr uint64, mod uint64) bool {
		ptr := addr & ((1 << 48) - 1) // canonical user pointer
		signed := cfg.Sign(ptr, mod, key)
		got, err := cfg.Auth(signed, mod, key)
		return err == nil && got == ptr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForgeryResistanceProperty(t *testing.T) {
	// Random signatures must essentially never validate: with 10
	// signature bits a blind guess passes with p = 2^-10, so 200 random
	// forgeries passing more than a handful of times indicates a broken
	// MAC. We tolerate up to 3 lucky guesses.
	cfg := DefaultConfig
	key := KeyFromSeed(1234)
	lucky := 0
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 200; i++ {
		forged := cfg.Layout.Insert(next()&((1<<48)-1), next())
		if _, err := cfg.Auth(forged, 0, key); err == nil {
			lucky++
		}
	}
	if lucky > 3 {
		t.Errorf("%d/200 forged signatures validated", lucky)
	}
}

func TestKeyIndependence(t *testing.T) {
	// Two instances (two keys) must produce different signatures for
	// the same pointer, so leaked pointers are not reusable (paper §4.2).
	cfg := DefaultConfig
	a := cfg.Sign(0x8650, 0, KeyFromSeed(5))
	b := cfg.Sign(0x8650, 0, KeyFromSeed(6))
	if a == b {
		t.Error("different keys produced identical signed pointers")
	}
}

func TestSigBits(t *testing.T) {
	if got := DefaultConfig.SigBits(); got != 10 {
		t.Errorf("MTE+PAC SigBits = %d, want 10", got)
	}
	if got := (Config{Layout: ptrlayout.PACOnly}).SigBits(); got != 15 {
		t.Errorf("PAC-only SigBits = %d, want 15", got)
	}
}
