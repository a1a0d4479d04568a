package bench

import (
	"encoding/json"
	"testing"
)

// TestMitigationVariants pins the hardened twin: identical to the Cage
// row in everything but its name and the SpectreHarden bit.
func TestMitigationVariants(t *testing.T) {
	full, hard := MitigationVariants()
	if full.Name != "Cage" {
		t.Fatalf("full variant %q, want the Table 3 Cage row", full.Name)
	}
	if hard.Name != "Cage-hardened" {
		t.Errorf("hardened variant named %q", hard.Name)
	}
	if !hard.Features.SpectreHarden {
		t.Error("hardened variant lost SpectreHarden")
	}
	want := full
	want.Name = hard.Name
	want.Features.SpectreHarden = true
	if hard != want {
		t.Errorf("hardened variant %+v differs beyond name+SpectreHarden from %+v", hard, want)
	}
}

// TestMeasureMitigationQuick runs the quick sweep and pins the record's
// invariants: bit-identical results, a strictly positive fuel tax, and
// nonzero mitigation events on every kernel.
func TestMeasureMitigationQuick(t *testing.T) {
	rec, err := MeasureMitigation(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Kernels) == 0 {
		t.Fatal("no kernels measured")
	}
	for _, mk := range rec.Kernels {
		if !mk.ResultsIdentical {
			t.Errorf("%s: hardened results differ from full", mk.Kernel)
		}
		if mk.HardenedFuel <= mk.FullFuel {
			t.Errorf("%s: hardened fuel %d not above full %d", mk.Kernel, mk.HardenedFuel, mk.FullFuel)
		}
		if mk.FuelTaxPct <= 0 {
			t.Errorf("%s: fuel tax %.3f%%, want > 0", mk.Kernel, mk.FuelTaxPct)
		}
		if mk.FenceEvents == 0 || mk.BTBFlushEvents == 0 {
			t.Errorf("%s: mitigation events fence=%d btb_flush=%d, want both nonzero",
				mk.Kernel, mk.FenceEvents, mk.BTBFlushEvents)
		}
		for core, tax := range mk.CycleTaxPct {
			if tax <= 0 {
				t.Errorf("%s: cycle tax on %s is %.3f%%, want > 0", mk.Kernel, core, tax)
			}
		}
	}
	// The record must round-trip through the -mitigation document shape.
	var buf []byte
	rep := JSONReport{Schema: JSONSchema, Quick: true, Mitigation: rec}
	buf, err = json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded JSONReport
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Mitigation == nil || len(decoded.Mitigation.Kernels) != len(rec.Kernels) {
		t.Fatal("mitigation record did not round-trip through JSONReport")
	}
}
