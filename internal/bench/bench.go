package bench

import (
	"fmt"
	"io"
	"strings"

	"cage/internal/adversary"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/mte"
)

// Variant is one Table 3 runtime configuration.
type Variant struct {
	Name     string
	PtrWidth int
	Compile  codegen.Options
	Features core.Features
}

// Table3Variants returns the six benchmark configurations in paper
// order.
func Table3Variants() []Variant {
	sync := mte.ModeSync
	return []Variant{
		{
			Name: "baseline wasm32", PtrWidth: 32,
			Compile: codegen.Options{Wasm64: false},
		},
		{
			Name: "baseline wasm64", PtrWidth: 64,
			Compile: codegen.Options{Wasm64: true},
		},
		{
			Name: "Cage-mem-safety", PtrWidth: 64,
			Compile:  codegen.Options{Wasm64: true, StackSanitizer: true},
			Features: core.Features{MemSafety: true, MTEMode: sync},
		},
		{
			Name: "Cage-ptr-auth", PtrWidth: 64,
			Compile:  codegen.Options{Wasm64: true, PtrAuth: true},
			Features: core.Features{PtrAuth: true},
		},
		{
			Name: "Cage-sandboxing", PtrWidth: 64,
			Compile:  codegen.Options{Wasm64: true},
			Features: core.Features{Sandbox: true, MTEMode: sync},
		},
		{
			Name: "Cage", PtrWidth: 64,
			Compile:  codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
			Features: core.CageAll(),
		},
	}
}

// table is a minimal text-table writer for harness output.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// RunAll executes every experiment and writes the paper document.
// quick shrinks problem sizes for fast smoke runs; the full document is
// checked in as BENCH_paper.txt.
func RunAll(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "== Table 1: MTE/PAC instruction throughput and latency ==")
	Table1Report(w)

	fmt.Fprintln(w, "\n== Fig. 4: 128 MiB memset under MTE modes ==")
	Fig4Report(w)

	// Table 2 and the matrix section read the same cells.
	matrix, err := adversary.Run(adversary.DefaultMatrix())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== Table 2: CVE mitigation matrix ==")
	Table2Report(w, matrix)

	fmt.Fprintln(w, "\n== Fig. 14: PolyBench/C runtime overheads (Table 3 variants) ==")
	fig14, err := RunFig14(quick)
	if err != nil {
		return err
	}
	fig14.Report(w)

	fmt.Fprintln(w, "\n== Fig. 15: pointer authentication call overhead ==")
	fig15, err := RunFig15(quick)
	if err != nil {
		return err
	}
	fig15.Report(w)

	fmt.Fprintln(w, "\n== Table 4 / Fig. 16: tagged-memory initialization ==")
	Fig16Report(w)

	fmt.Fprintln(w, "\n== §7.2: instance startup overhead ==")
	if err := StartupReport(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== §7.3: memory overhead ==")
	if err := MemoryReport(w, quick); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== §7.4: security analysis ==")
	SecurityReport(w)

	fmt.Fprintln(w, "\n== Spectre mitigation tax: hardened vs full ==")
	if err := MitigationReport(w, quick); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== Adversary matrix: scenario × preset ==")
	MatrixReport(w, matrix)
	return nil
}
