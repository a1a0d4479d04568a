package cage

import (
	"strings"
	"testing"
)

// TestConfigByName pins the preset-name mapping every CLI shares
// (cage-run, cage-bench, cage-objdump, cage-serve): each name resolves
// to exactly its Config, and an unknown name is an error naming the
// offender.
func TestConfigByName(t *testing.T) {
	cases := []struct {
		name string
		want Config
	}{
		{"full", Config{Wasm64: true, MemorySafety: true, Sandboxing: true, PointerAuth: true}},
		{"baseline32", Config{}},
		{"baseline64", Config{Wasm64: true}},
		{"memsafety", Config{Wasm64: true, MemorySafety: true}},
		{"ptrauth", Config{Wasm64: true, PointerAuth: true}},
		{"sandbox", Config{Wasm64: true, Sandboxing: true}},
		{"hardened", Config{Wasm64: true, MemorySafety: true, Sandboxing: true, PointerAuth: true, SpectreHarden: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ConfigByName(tc.name)
			if err != nil {
				t.Fatalf("ConfigByName(%q): %v", tc.name, err)
			}
			if got != tc.want {
				t.Errorf("ConfigByName(%q) = %+v, want %+v", tc.name, got, tc.want)
			}
		})
	}

	t.Run("unknown", func(t *testing.T) {
		_, err := ConfigByName("mte-ultra")
		if err == nil {
			t.Fatal("ConfigByName accepted an unknown preset")
		}
		if !strings.Contains(err.Error(), "mte-ultra") {
			t.Errorf("error %q does not name the unknown preset", err)
		}
	})

	t.Run("presets-match-constructors", func(t *testing.T) {
		for name, want := range map[string]Config{
			"full":       FullHardening(),
			"baseline32": Baseline32(),
			"baseline64": Baseline64(),
			"memsafety":  MemorySafetyOnly(),
			"ptrauth":    PointerAuthOnly(),
			"sandbox":    SandboxingOnly(),
			"hardened":   Hardened(),
		} {
			got, err := ConfigByName(name)
			if err != nil {
				t.Fatalf("ConfigByName(%q): %v", name, err)
			}
			if got != want {
				t.Errorf("ConfigByName(%q) = %+v, want the %s constructor's %+v", name, got, name, want)
			}
		}
	})
}
