// Command cage-bench regenerates the paper's tables and figures, and
// the deterministic record the repo checks in. Performance claims
// are made by benchmark/ (see BENCHMARK.json), not here.
//
// With -mitigation it emits the Spectre-mitigation record: the
// per-kernel fuel/cycle tax the hardened preset pays over full (whose
// results it must reproduce bit-identically) together with the
// adversary verdict table — every scenario of internal/adversary under
// every preset. The non-quick document is checked in as
// BENCH_mitigation.json.
//
// The document depends on the source tree alone; CI regenerates it and
// fails unless it is byte-identical to the checked-in file.
//
// -mitigation and a non-default -exp select different outputs; giving
// both is a usage error.
//
// Usage:
//
//	cage-bench [-quick] [-exp all|table1|table2|fig4|fig14|fig15|fig16|startup|mem|security]
//	cage-bench [-quick] -mitigation
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
	mitigationOut := flag.Bool("mitigation", false, "emit the Spectre-mitigation (hardened vs full) JSON record")
	flag.Parse()

	if *mitigationOut && *exp != "all" {
		fmt.Fprintf(os.Stderr, "cage-bench: -mitigation and -exp %s do not combine: each selects a different output\n", *exp)
		os.Exit(2)
	}

	w := os.Stdout
	var err error
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
