package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"cage/internal/arch"
	"cage/internal/exec"
	"cage/internal/polybench"
)

// Mitigation benchmark: prices the Spectre-hardened preset against
// full. The hardened lowering is bit-identical to full in semantics —
// same results, same traps — and differs only in the timing model
// (fence events at indirect branches and returns, BTB flushes at
// sandbox transitions), so the comparison below is a pure mitigation
// tax: fuel and modeled cycles, never answers.

// MitigationVariants returns the full-Cage variant and its
// Spectre-hardened twin. Kept separate from Table3Variants, whose six
// paper-order rows are pinned by tests and by the Fig. 14 layout.
func MitigationVariants() (full, hardened Variant) {
	for _, v := range Table3Variants() {
		if v.Name == "Cage" {
			full = v
		}
	}
	hardened = full
	hardened.Name = "Cage-hardened"
	hardened.Features.SpectreHarden = true
	return full, hardened
}

// MitigationKernel is one kernel's full-vs-hardened comparison.
type MitigationKernel struct {
	Kernel   string  `json:"kernel"`
	N        int     `json:"n"`
	Checksum float64 `json:"checksum"`
	// ResultsIdentical records the acceptance criterion: the hardened
	// run returned bit-identical values to the full run.
	ResultsIdentical bool   `json:"results_identical"`
	FullFuel         uint64 `json:"full_fuel"`
	HardenedFuel     uint64 `json:"hardened_fuel"`
	// FuelTaxPct is the relative fuel increase hardened pays.
	FuelTaxPct float64 `json:"fuel_tax_pct"`
	// FenceEvents and BTBFlushEvents are the mitigation's own events —
	// the entire difference between the two runs.
	FenceEvents    uint64 `json:"fence_events"`
	BTBFlushEvents uint64 `json:"btb_flush_events"`
	// CycleTaxPct maps each modeled core to the relative cycle increase;
	// the fence is cheap on the little core and dear on the big ones, so
	// the tax is core-dependent even at a fixed event count.
	CycleTaxPct map[string]float64 `json:"cycle_tax_pct"`
}

// MitigationRecord is the cage-bench -mitigation JSON record.
type MitigationRecord struct {
	Kernels []MitigationKernel `json:"kernels"`
	// Scenarios is the adversary verdict table (schema cage-adversary/v1)
	// covering the scenario corpus under every preset. It is attached by
	// cmd/cage-bench as pre-encoded JSON: this package cannot import
	// internal/adversary, which depends on the root package that the
	// root benchmark suite compiles together with this one.
	Scenarios json.RawMessage `json:"scenarios,omitempty"`
}

// MeasureMitigation runs every PolyBench kernel under full and hardened
// and reports the per-kernel tax. quick selects the test problem sizes.
func MeasureMitigation(quick bool) (*MitigationRecord, error) {
	fullV, hardV := MitigationVariants()
	rec := &MitigationRecord{}
	for _, k := range polybench.Kernels() {
		n := k.BenchN
		if quick {
			n = k.TestN
		}
		// Both variants compile identically; hardening is lowering-time.
		m, err := polybench.Build(k, fullV.Compile)
		if err != nil {
			return nil, err
		}
		run := func(v Variant) ([]uint64, *arch.Counter, error) {
			var ctr arch.Counter
			inst, _, err := polybench.Instantiate(m, v.Features, &ctr)
			if err != nil {
				return nil, nil, err
			}
			defer inst.Close()
			res, err := inst.Invoke("run", uint64(n))
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s/%s: %w", k.Name, v.Name, err)
			}
			return res, &ctr, nil
		}
		fullRes, fullCtr, err := run(fullV)
		if err != nil {
			return nil, err
		}
		hardRes, hardCtr, err := run(hardV)
		if err != nil {
			return nil, err
		}

		identical := len(fullRes) == len(hardRes)
		for i := 0; identical && i < len(fullRes); i++ {
			identical = fullRes[i] == hardRes[i]
		}
		mk := MitigationKernel{
			Kernel: k.Name, N: n,
			Checksum:         exec.F64Val(fullRes[0]),
			ResultsIdentical: identical,
			FullFuel:         fullCtr.Total(),
			HardenedFuel:     hardCtr.Total(),
			FenceEvents:      hardCtr.Get(arch.EvFence),
			BTBFlushEvents:   hardCtr.Get(arch.EvBTBFlush),
			CycleTaxPct:      make(map[string]float64),
		}
		if mk.FullFuel > 0 {
			mk.FuelTaxPct = 100 * (float64(mk.HardenedFuel)/float64(mk.FullFuel) - 1)
		}
		for _, c := range arch.Cores() {
			if base := fullCtr.Cycles(c); base > 0 {
				mk.CycleTaxPct[c.Name] = 100 * (hardCtr.Cycles(c)/base - 1)
			}
		}
		rec.Kernels = append(rec.Kernels, mk)
	}
	return rec, nil
}

// JSONSchema identifies the layout of the -mitigation document; bump it
// when fields change incompatibly.
const JSONSchema = "cage-bench/v2"

// JSONReport is the -mitigation document, checked in as
// BENCH_mitigation.json. Every field is a function of the source tree
// alone (fuel, modeled cycles, verdicts — never wall time), so CI
// regenerates the document and compares it byte for byte.
type JSONReport struct {
	Schema     string            `json:"schema"`
	Quick      bool              `json:"quick"`
	Mitigation *MitigationRecord `json:"mitigation,omitempty"`
}

// WriteMitigationJSON measures the mitigation record and writes its
// JSONReport to w. scenarios, if non-nil, is the pre-encoded adversary
// verdict table.
func WriteMitigationJSON(w io.Writer, quick bool, scenarios json.RawMessage) error {
	rec, err := MeasureMitigation(quick)
	if err != nil {
		return err
	}
	rec.Scenarios = scenarios
	rep := JSONReport{Schema: JSONSchema, Quick: quick, Mitigation: rec}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
