package bench

import (
	"fmt"
	"io"

	"cage/internal/adversary"
	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/mte"
	"cage/internal/wasm"
)

// --- Table 1 ---

// Table1Rows runs the instruction microbenchmarks on every core.
func Table1Rows(n int) map[string][]arch.InstMeasurement {
	out := make(map[string][]arch.InstMeasurement)
	for _, c := range arch.Cores() {
		out[c.Name] = c.MeasureAll(n)
	}
	return out
}

// Table1Report prints the paper's Table 1 layout.
func Table1Report(w io.Writer) {
	const n = 1_000_000 // scaled from the paper's 1e10 instructions
	cores := arch.Cores()
	rows := Table1Rows(n)
	t := &table{header: []string{"Inst", "X3 Tp", "X3 Lat", "A715 Tp", "A715 Lat", "A510 Tp", "A510 Lat"}}
	classes := append(append([]arch.InstClass{}, arch.MTEInstClasses...), arch.PACInstClasses...)
	for i, cl := range classes {
		cells := []string{cl.String()}
		for _, c := range cores {
			m := rows[c.Name][i]
			cells = append(cells, fmt.Sprintf("%.2f", m.Throughput))
			if cl.HasLatencyRow() {
				cells = append(cells, fmt.Sprintf("%.2f", m.Latency))
			} else {
				cells = append(cells, "-")
			}
		}
		t.add(cells...)
	}
	t.write(w)
}

// --- Fig. 4 ---

// Fig4Row is one core's memset runtimes under the three MTE modes.
type Fig4Row struct {
	Core                    string
	NoneMs, AsyncMs, SyncMs float64
}

// Fig4Rows models the 128 MiB memset of paper Fig. 4.
func Fig4Rows() []Fig4Row {
	const size = 128 << 20
	var rows []Fig4Row
	for _, c := range arch.Cores() {
		rows = append(rows, Fig4Row{
			Core:    c.Name,
			NoneMs:  c.Millis(c.MemsetCycles(size, mte.ModeDisabled)),
			AsyncMs: c.Millis(c.MemsetCycles(size, mte.ModeAsync)),
			SyncMs:  c.Millis(c.MemsetCycles(size, mte.ModeSync)),
		})
	}
	return rows
}

// Fig4Report prints the Fig. 4 series with overhead percentages.
func Fig4Report(w io.Writer) {
	t := &table{header: []string{"Core", "none (ms)", "async (ms)", "sync (ms)", "async ovh", "sync ovh"}}
	for _, r := range Fig4Rows() {
		t.add(r.Core,
			fmt.Sprintf("%.1f", r.NoneMs),
			fmt.Sprintf("%.1f", r.AsyncMs),
			fmt.Sprintf("%.1f", r.SyncMs),
			fmt.Sprintf("%.1f%%", 100*(r.AsyncMs/r.NoneMs-1)),
			fmt.Sprintf("%.1f%%", 100*(r.SyncMs/r.NoneMs-1)))
	}
	t.write(w)
}

// --- Fig. 16 / Table 4 ---

// Fig16Cell is one (core, variant) runtime.
type Fig16Cell struct {
	Core    string
	Variant arch.InitVariant
	Ms      float64
}

// Fig16Cells models initializing 128 MiB with each Table 4 variant.
func Fig16Cells() []Fig16Cell {
	const size = 128 << 20
	var out []Fig16Cell
	for _, c := range arch.Cores() {
		for _, v := range arch.AllInitVariants {
			out = append(out, Fig16Cell{Core: c.Name, Variant: v, Ms: c.Millis(c.InitCycles(size, v))})
		}
	}
	return out
}

// Fig16Report prints Table 4's attribute columns plus the Fig. 16
// runtimes.
func Fig16Report(w io.Writer) {
	t := &table{header: []string{"Variant", "Granule", "Sets 0", "memset", "X3 (ms)", "A715 (ms)", "A510 (ms)"}}
	cells := Fig16Cells()
	ms := func(coreName string, v arch.InitVariant) float64 {
		for _, c := range cells {
			if c.Core == coreName && c.Variant == v {
				return c.Ms
			}
		}
		return 0
	}
	for _, v := range arch.AllInitVariants {
		granule := "-"
		if op, ok := v.TagStoreOp(); ok {
			granule = fmt.Sprintf("%d bytes", op.Granules()*mte.GranuleSize)
		}
		t.add(v.String(), granule, yesNo(v.SetsZero()), yesNo(v.UsesMemset()),
			fmt.Sprintf("%.1f", ms("Cortex-X3", v)),
			fmt.Sprintf("%.1f", ms("Cortex-A715", v)),
			fmt.Sprintf("%.1f", ms("Cortex-A510", v)))
	}
	t.write(w)
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// --- Table 2 and the adversary matrix ---

// Table2Report prints Table 2 from the adversary matrix: each case
// study's baseline64 cell and its full cell.
func Table2Report(w io.Writer, matrix *adversary.Table) {
	t := &table{header: []string{"CVE", "Cause", "Mitigated in WASM", "Baseline outcome", "Cage outcome"}}
	for _, cs := range adversary.Table2Cases() {
		base, _ := matrix.Cell(cs.CVE, "baseline64")
		caged, _ := matrix.Cell(cs.CVE, "full")
		t.add(cs.CVE, cs.Cause, cs.MitigatedBaseline, outcome(base.Observed), outcome(caged.Observed))
	}
	t.write(w)
}

// MatrixReport prints every cell of the adversary matrix, then how many
// agree with their scenario's oracle.
func MatrixReport(w io.Writer, matrix *adversary.Table) {
	t := &table{header: []string{"Scenario", "Family", "Config", "Verdict", "Class", "Fuel", "Detail"}}
	for _, c := range matrix.Cells {
		class := string(c.Observed.Class)
		if class == "" {
			class = "-"
		}
		t.add(c.Scenario, c.Family, c.Config, string(c.Observed.Verdict), class,
			fmt.Sprintf("%d", c.Fuel), c.Observed.Detail)
	}
	t.write(w)
	fmt.Fprintf(w, "cells agreeing with their oracle: %d of %d\n",
		len(matrix.Cells)-len(matrix.Mismatches()), len(matrix.Cells))
}

// outcome renders an observed verdict, naming the trap when it trapped.
func outcome(o adversary.Outcome) string {
	if o.Verdict == adversary.VerdictTrapped {
		return fmt.Sprintf("%s (%s)", o.Verdict, o.Detail)
	}
	return string(o.Verdict)
}

// --- §7.2 startup ---

// StartupResult quantifies instance startup with a 128 MiB memory.
type StartupResult struct {
	// TaggingMs models tagging the linear memory per core (stg stream).
	TaggingMs map[string]float64
	// GranulesTagged is the measured tag-store work at instantiation.
	GranulesTagged uint64
}

// RunStartup instantiates a module with a 128 MiB linear memory under
// MTE sandboxing and calls an empty export (paper §7.2 methodology).
func RunStartup() (*StartupResult, error) {
	const pages = (128 << 20) / wasm.PageSize
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{})
	m.Mems = []wasm.MemoryType{{Limits: wasm.Limits{Min: pages, Max: pages, HasMax: true}, Memory64: true}}
	m.Funcs = []wasm.Function{{TypeIdx: ti, Body: []wasm.Instr{wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "empty", Kind: wasm.ExportFunc, Idx: 0}}

	inst, err := exec.NewInstance(m, exec.Config{
		Features: core.Features{Sandbox: true, MTEMode: mte.ModeSync},
		Seed:     5,
	})
	if err != nil {
		return nil, err
	}
	if _, err := inst.Invoke("empty"); err != nil {
		return nil, err
	}

	res := &StartupResult{
		TaggingMs:      make(map[string]float64),
		GranulesTagged: inst.StartupGranulesTagged,
	}
	for _, c := range arch.Cores() {
		res.TaggingMs[c.Name] = c.Millis(c.TagRegionCycles(res.GranulesTagged * mte.GranuleSize))
	}
	return res, nil
}

// StartupReport prints the startup accounting, including the Table 4
// ablation: which initialization primitive a runtime should pick for
// fresh, zeroed, tagged linear memory.
func StartupReport(w io.Writer) error {
	res, err := RunStartup()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "granules tagged at instantiation: %d (128 MiB)\n", res.GranulesTagged)
	for _, c := range arch.Cores() {
		fmt.Fprintf(w, "  %-12s modeled tagging cost: %.1f ms\n", c.Name, res.TaggingMs[c.Name])
	}
	fmt.Fprintln(w, "(the paper observes the tagging cost is hidden by runtime startup)")

	// Ablation: initializing zeroed+tagged memory with stzg beats the
	// naive tag-then-memset sequence on every core (Table 4 / Fig. 16
	// applied to instance startup).
	size := res.GranulesTagged * mte.GranuleSize
	fmt.Fprintln(w, "initialization-primitive ablation (zeroed + tagged memory):")
	for _, c := range arch.Cores() {
		naive := c.Millis(c.InitCycles(size, arch.InitSTGMemset))
		smart := c.Millis(c.InitCycles(size, arch.InitSTZG))
		fmt.Fprintf(w, "  %-12s stg+memset %.1f ms -> stzg %.1f ms (%.0f%% saved)\n",
			c.Name, naive, smart, 100*(1-smart/naive))
	}
	return nil
}

// --- §7.3 memory overhead ---

// MemoryResult is the §7.3 accounting.
type MemoryResult struct {
	// Wasm64OverWasm32 is the measured data-footprint overhead of
	// switching pointer widths.
	Wasm64OverWasm32 float64
	// TagStorage is MTE's architectural 1/32 tag-space cost.
	TagStorage float64
	// Total is the estimated combined overhead (paper: < 5.3 %).
	Total float64
	// AllocatorMetadata is the hardened allocator's live metadata per
	// payload byte for the measured workloads.
	AllocatorMetadata float64
}

// MemoryReport prints the §7.3 estimate.
func MemoryReport(w io.Writer, quick bool) error {
	res, err := RunMemoryOverhead(quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wasm64 over wasm32 data footprint: %+.2f%%\n", 100*res.Wasm64OverWasm32)
	fmt.Fprintf(w, "MTE tag storage (4 bits / 16 bytes): %.3f%%\n", 100*res.TagStorage)
	fmt.Fprintf(w, "allocator metadata overhead: %.2f%%\n", 100*res.AllocatorMetadata)
	fmt.Fprintf(w, "estimated total memory overhead: %.2f%% (paper: < 5.3%%)\n", 100*res.Total)
	return nil
}

// TagStorageOverhead re-exports the architectural constant.
func TagStorageOverhead() float64 { return alloc.TagStorageOverhead() }
