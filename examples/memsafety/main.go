// Memsafety walks the paper's Table 2: eight CVE-modeled memory-safety
// bugs that are silently exploitable on baseline WebAssembly and trap
// under Cage. It runs them on the adversary matrix runner under the
// baseline64 and full presets.
package main

import (
	"fmt"
	"log"

	"cage"
	"cage/internal/adversary"
)

func main() {
	tbl, err := adversary.Run(adversary.Matrix{
		Scenarios: adversary.Table2Scenarios(),
		Presets: []adversary.Preset{
			{Name: "baseline64", Config: cage.Baseline64()},
			{Name: "full", Config: cage.FullHardening()},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 2: memory safety errors and their mitigation")
	fmt.Println()
	for _, cs := range adversary.Table2Cases() {
		base, _ := tbl.Cell(cs.CVE, "baseline64")
		caged, _ := tbl.Cell(cs.CVE, "full")
		fmt.Printf("%-15s %-14s\n", cs.CVE, cs.Cause)
		fmt.Printf("    %s\n", cs.Description)
		if base.Observed.Verdict == adversary.VerdictExploited {
			fmt.Printf("    baseline: EXPLOITED (%s)\n", base.Observed.Detail)
		} else {
			fmt.Printf("    baseline: no observable damage\n")
		}
		if caged.Observed.Verdict == adversary.VerdictTrapped {
			fmt.Printf("    cage:     trapped -> %s\n", caged.Observed.Detail)
		} else {
			fmt.Printf("    cage:     NOT MITIGATED\n")
		}
		fmt.Println()
	}
}
