package bench

import (
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
	Kernel   string
	N        int
	Checksum float64
	// ResultsIdentical records the acceptance criterion: the hardened
	// run returned bit-identical values to the full run.
	ResultsIdentical bool
	FullFuel         uint64
	HardenedFuel     uint64
	// FuelTaxPct is the relative fuel increase hardened pays.
	FuelTaxPct float64
	// FenceEvents and BTBFlushEvents are the mitigation's own events —
	// the entire difference between the two runs.
	FenceEvents    uint64
	BTBFlushEvents uint64
	// CycleTaxPct maps each modeled core to the relative cycle increase;
	// the fence is cheap on the little core and dear on the big ones, so
	// the tax is core-dependent even at a fixed event count.
	CycleTaxPct map[string]float64
}

// MeasureMitigation runs every PolyBench kernel under full and hardened
// and reports the per-kernel tax. quick selects the test problem sizes.
func MeasureMitigation(quick bool) ([]MitigationKernel, error) {
	fullV, hardV := MitigationVariants()
	var out []MitigationKernel
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
		out = append(out, mk)
	}
	return out, nil
}

// MitigationReport prints the per-kernel tax.
func MitigationReport(w io.Writer, quick bool) error {
	kernels, err := MeasureMitigation(quick)
	if err != nil {
		return err
	}
	cores := arch.Cores()
	header := []string{"Kernel", "n", "checksum", "identical", "full fuel", "hardened fuel",
		"fuel tax", "fences", "BTB flushes"}
	for _, c := range cores {
		header = append(header, c.Name+" cycles")
	}
	t := &table{header: header}
	for _, k := range kernels {
		cells := []string{k.Kernel, fmt.Sprintf("%d", k.N), fmt.Sprintf("%.4f", k.Checksum),
			yesNo(k.ResultsIdentical), fmt.Sprintf("%d", k.FullFuel), fmt.Sprintf("%d", k.HardenedFuel),
			fmt.Sprintf("%+.3f%%", k.FuelTaxPct), fmt.Sprintf("%d", k.FenceEvents),
			fmt.Sprintf("%d", k.BTBFlushEvents)}
		for _, c := range cores {
			cells = append(cells, fmt.Sprintf("%+.2f%%", k.CycleTaxPct[c.Name]))
		}
		t.add(cells...)
	}
	fmt.Fprintln(w, "hardened over full per kernel, in fuel and modeled cycles (results must be identical):")
	t.write(w)
	return nil
}
