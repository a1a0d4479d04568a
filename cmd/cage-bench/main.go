// Command cage-bench regenerates the paper's tables and figures.
//
// With -json it instead emits one machine-readable document (schema
// cage-bench/v2) with per-kernel wall time, timing-model event counts,
// and fuel consumed for every Table 3 variant, plus host-call and
// guest-call microbenchmark records — the format CI archives as a
// perf-trajectory artifact. v2 is a superset of v1; see
// internal/bench.JSONSchema for the compatibility note.
//
// With -mitigation it emits only the Spectre-mitigation record: the
// per-kernel fuel/cycle tax the hardened preset pays over full (whose
// results it must reproduce bit-identically) together with the
// adversary verdict table — every scenario of internal/adversary under
// every preset. CI archives the document as BENCH_mitigation.json.
//
// With -dispatch it emits only the dispatch-tier record: lowered vs
// profile-guided fused wall time per kernel and config
// (guard32 and full-cage), with the fusion profile recorded in-run. On
// cageguard builds the guard32 rows run on the vmem guard backend. CI
// archives the document as BENCH_dispatch.json.
//
// With -record-profile it runs the polybench kernels with the
// hot-sequence recorder armed and emits the merged profile — the
// document checked in as internal/profile/corpus/polybench.json, the
// runtime's default fusion profile.
//
// Usage:
//
//	cage-bench [-quick] [-exp all|table1|table2|fig4|fig14|fig15|fig16|startup|mem|security]
//	cage-bench [-quick] -json
//	cage-bench [-quick] -mitigation
//	cage-bench [-quick] -dispatch
//	cage-bench [-quick] -record-profile
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"cage/internal/adversary"
	"cage/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use small problem sizes")
	exp := flag.String("exp", "all", "which experiment to run")
	jsonOut := flag.Bool("json", false, "emit per-kernel JSON (ns/op, event counts, fuel) instead of the report tables")
	snapshotOut := flag.Bool("snapshot", false, "emit only the snapshot (fresh vs restore) JSON record")
	mitigationOut := flag.Bool("mitigation", false, "emit only the Spectre-mitigation (hardened vs full) JSON record")
	dispatchOut := flag.Bool("dispatch", false, "emit only the dispatch-tier (lowered vs fused) JSON record")
	recordProfile := flag.Bool("record-profile", false, "record the polybench hot-sequence corpus and emit it as a profile JSON document")
	flag.Parse()

	w := os.Stdout
	var err error
	if *recordProfile {
		if err := bench.WriteProfileJSON(w, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *dispatchOut {
		if err := bench.WriteDispatchJSON(w, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *snapshotOut {
		if err := bench.WriteSnapshotJSON(w, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *mitigationOut {
		// The scenario half of the record is the adversary verdict
		// table, evaluated here and attached pre-encoded (internal/bench
		// cannot import internal/adversary; see MitigationRecord).
		tbl, err := adversary.Run(adversary.DefaultMatrix())
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: adversary matrix: %v\n", err)
			os.Exit(1)
		}
		var buf bytes.Buffer
		if err := tbl.WriteJSON(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteMitigationJSON(w, *quick, buf.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if *exp != "all" {
			// -json is its own sweep (every kernel × every Table 3
			// variant); silently dropping an explicit -exp selection
			// would mislead.
			fmt.Fprintln(os.Stderr, "cage-bench: -json does not combine with -exp")
			os.Exit(2)
		}
		if err := bench.WriteJSON(w, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	switch *exp {
	case "all":
		err = bench.RunAll(w, *quick)
	case "table1":
		bench.Table1Report(w)
	case "table2":
		err = bench.Table2Report(w)
	case "fig4":
		bench.Fig4Report(w)
	case "fig14":
		var r *bench.Fig14Result
		if r, err = bench.RunFig14(*quick); err == nil {
			r.Report(w)
		}
	case "fig15":
		var r *bench.Fig15Result
		if r, err = bench.RunFig15(*quick); err == nil {
			r.Report(w)
		}
	case "fig16":
		bench.Fig16Report(w)
	case "startup":
		err = bench.StartupReport(w)
	case "mem":
		err = bench.MemoryReport(w, *quick)
	case "security":
		bench.SecurityReport(w)
	default:
		fmt.Fprintf(os.Stderr, "cage-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-bench: %v\n", err)
		os.Exit(1)
	}
}
