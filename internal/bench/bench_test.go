package bench

import (
	"bytes"
	"strings"
	"testing"

	"cage/internal/arch"
)

func TestTable3VariantsComplete(t *testing.T) {
	want := []string{
		"baseline wasm32", "baseline wasm64", "Cage-mem-safety",
		"Cage-ptr-auth", "Cage-sandboxing", "Cage",
	}
	vs := Table3Variants()
	if len(vs) != len(want) {
		t.Fatalf("%d variants, want %d", len(vs), len(want))
	}
	for i, name := range want {
		if vs[i].Name != name {
			t.Errorf("variant %d = %q, want %q", i, vs[i].Name, name)
		}
	}
	if _, err := VariantByName("Cage"); err != nil {
		t.Error(err)
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	// Table 3 columns: pointer width and feature flags.
	v, _ := VariantByName("baseline wasm32")
	if v.PtrWidth != 32 || v.Features.MemSafety || v.Features.Sandbox {
		t.Error("wasm32 baseline misconfigured")
	}
	v, _ = VariantByName("Cage")
	if !v.Features.MemSafety || !v.Features.Sandbox || !v.Features.PtrAuth {
		t.Error("Cage variant misconfigured")
	}
}

// TestFig14Shape asserts the paper's headline claims hold qualitatively
// (paper §7.2): wasm32 beats wasm64 (most dramatically on the in-order
// core), MTE sandboxing recovers most of the wasm64 bounds-check cost,
// memory safety costs single digits, and full Cage still beats plain
// wasm64 on the in-order core.
func TestFig14Shape(t *testing.T) {
	res, err := RunFig14(true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(variant, core string) float64 { return res.MeanPct[variant][core] }

	for _, core := range res.Cores {
		if w32 := get("baseline wasm32", core); w32 >= 100 {
			t.Errorf("%s: wasm32 (%.1f) must beat wasm64", core, w32)
		}
		if sb := get("Cage-sandboxing", core); sb >= 100 {
			t.Errorf("%s: MTE sandboxing (%.1f) must beat wasm64 bounds checks", core, sb)
		}
		ms := get("Cage-mem-safety", core)
		if ms <= 100 || ms > 112 {
			t.Errorf("%s: memory safety overhead %.1f outside (100, 112]", core, ms)
		}
	}
	// The in-order A510 suffers most from software bounds checks
	// (paper: ~52 % overhead; out-of-order: 6–8 %).
	oooGain := 100 - get("baseline wasm32", "Cortex-X3")
	inoGain := 100 - get("baseline wasm32", "Cortex-A510")
	if inoGain < 2.5*oooGain {
		t.Errorf("in-order bounds-check penalty (%.1f) must dwarf out-of-order (%.1f)",
			inoGain, oooGain)
	}
	if inoGain < 20 {
		t.Errorf("A510 wasm64 overhead too small: wasm32 at %.1f", 100-inoGain)
	}
	// Full Cage on the in-order core must be a clear win over wasm64
	// (paper: 29.2 % speedup).
	if cage := get("Cage", "Cortex-A510"); cage > 85 {
		t.Errorf("full Cage on A510 = %.1f, expected a clear speedup", cage)
	}
	// Sandboxing alone beats full Cage (which adds memory safety work).
	for _, core := range res.Cores {
		if get("Cage-sandboxing", core) > get("Cage", core) {
			t.Errorf("%s: sandboxing alone slower than full Cage", core)
		}
	}
}

// TestFig15Shape asserts the paper's Fig. 15 claims: dynamic dispatch
// costs 15–22 %, authentication adds virtually nothing on top.
func TestFig15Shape(t *testing.T) {
	res, err := RunFig15(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range res.Cores {
		dyn := res.Pct["dynamic"][core]
		auth := res.Pct["ptr-auth"][core]
		if dyn < 110 || dyn > 130 {
			t.Errorf("%s: dynamic = %.1f, want 110–130 (paper: 115–122)", core, dyn)
		}
		if auth-dyn > 3 {
			t.Errorf("%s: authentication added %.1f%% over dynamic (paper: negligible)",
				core, auth-dyn)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	for _, r := range Fig4Rows() {
		if !(r.NoneMs < r.AsyncMs && r.AsyncMs < r.SyncMs) {
			t.Errorf("%s: want none < async < sync, got %.1f/%.1f/%.1f",
				r.Core, r.NoneMs, r.AsyncMs, r.SyncMs)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	cells := Fig16Cells()
	ms := func(core string, v arch.InitVariant) float64 {
		for _, c := range cells {
			if c.Core == core && c.Variant == v {
				return c.Ms
			}
		}
		t.Fatalf("missing cell %s/%v", core, v)
		return 0
	}
	for _, core := range []string{"Cortex-X3", "Cortex-A715", "Cortex-A510"} {
		base := ms(core, arch.InitMemset)
		// Paper §7.4: stzg/stz2g/stgp at least match memset.
		for _, v := range []arch.InitVariant{arch.InitSTZG, arch.InitST2ZG, arch.InitSTGP} {
			if got := ms(core, v); got > base*1.01 {
				t.Errorf("%s: %v (%.1f ms) slower than memset (%.1f ms)", core, v, got, base)
			}
		}
		// Tag-then-memset pays for two passes.
		for _, v := range []arch.InitVariant{arch.InitSTGMemset, arch.InitST2GMemset} {
			if got := ms(core, v); got < base*1.05 {
				t.Errorf("%s: %v (%.1f ms) should clearly exceed memset", core, v, got)
			}
		}
	}
}

func TestTable2AllMitigated(t *testing.T) {
	rows, err := Table2Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.BaselineDamage == 0 {
			t.Errorf("%s: baseline not exploited", r.CVE)
		}
		if !r.CageTrapped {
			t.Errorf("%s: Cage did not mitigate", r.CVE)
		}
	}
}

func TestStartupAccounting(t *testing.T) {
	res, err := RunStartup()
	if err != nil {
		t.Fatal(err)
	}
	if res.GranulesTagged != (128<<20)/16 {
		t.Errorf("granules = %d", res.GranulesTagged)
	}
	if res.TaggingMs["Cortex-X3"] <= 0 {
		t.Error("missing modeled tagging cost")
	}
}

func TestMemoryOverheadUnderPaperBound(t *testing.T) {
	res, err := RunMemoryOverhead(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagStorage != 0.03125 {
		t.Errorf("tag storage = %f", res.TagStorage)
	}
	if res.Total <= 0 || res.Total >= 0.053 {
		t.Errorf("total overhead %.2f%% outside (0, 5.3%%)", 100*res.Total)
	}
}

func TestSecurityAnalysisNumbers(t *testing.T) {
	a := AnalyzeSecurity()
	if a.MaxSandboxes != 15 {
		t.Errorf("MaxSandboxes = %d", a.MaxSandboxes)
	}
	if a.CollisionInternalOnly < 1.0/15-1e-9 || a.CollisionInternalOnly > 1.0/15+1e-9 {
		t.Errorf("internal collision = %f, want 1/15", a.CollisionInternalOnly)
	}
	if a.CollisionCombined < 1.0/7-1e-9 || a.CollisionCombined > 1.0/7+1e-9 {
		t.Errorf("combined collision = %f, want 1/7", a.CollisionCombined)
	}
}

func TestRunAllProducesFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, heading := range []string{
		"Table 1", "Fig. 4", "Table 2", "Fig. 14", "Fig. 15",
		"Fig. 16", "startup", "memory overhead", "security analysis",
	} {
		if !strings.Contains(out, heading) {
			t.Errorf("report missing section %q", heading)
		}
	}
}
