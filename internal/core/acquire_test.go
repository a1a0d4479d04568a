package core

import (
	"errors"
	"testing"
)

// TestReleasedWakesOnFreedBudget pins the wake-up Engine.birth waits on
// when the §7.4 budget is exhausted: Released's channel stays open until
// a Release frees budget, after which an Acquire succeeds. Releasing the
// runtime tag or a tag nobody owns frees nothing and wakes nobody.
func TestReleasedWakesOnFreedBudget(t *testing.T) {
	combined := Features{MemSafety: true, Sandbox: true} // one sandbox tag: 1
	cases := []struct {
		name    string
		feats   Features
		release func(held []uint8) uint8
		wakes   bool
	}{
		{"owned tag", Features{Sandbox: true}, func(held []uint8) uint8 { return held[3] }, true},
		{"combined mode's one tag", combined, func(held []uint8) uint8 { return held[0] }, true},
		{"runtime tag", Features{Sandbox: true}, func([]uint8) uint8 { return RuntimeTag }, false},
		{"unowned tag", combined, func([]uint8) uint8 { return 2 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewSandboxAllocator(NewPolicy(tc.feats))
			var held []uint8
			for {
				tag, err := a.Acquire()
				if errors.Is(err, ErrSandboxesExhausted) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, tag)
			}
			released := a.Released()
			select {
			case <-released:
				t.Fatal("closed while the budget is exhausted")
			default:
			}
			a.Release(tc.release(held))
			select {
			case <-released:
				if !tc.wakes {
					t.Fatal("closed by a Release that freed no budget")
				}
			default:
				if tc.wakes {
					t.Fatal("still open after a Release that freed budget")
				}
			}
			_, err := a.Acquire()
			switch {
			case tc.wakes && err != nil:
				t.Fatalf("Acquire after the wake-up: %v", err)
			case !tc.wakes && !errors.Is(err, ErrSandboxesExhausted):
				t.Fatalf("Acquire after a Release that freed nothing: %v, want ErrSandboxesExhausted", err)
			}
		})
	}
}
