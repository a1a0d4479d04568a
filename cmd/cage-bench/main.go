// Command cage-bench writes the paper document: every table and figure
// of the evaluation, the Spectre mitigation tax the hardened preset
// pays over full, and the adversary scenario × preset matrix Table 2 is
// read from. Performance claims are made by benchmark/ (see
// BENCHMARK.json), not here.
//
// The document depends on the source tree alone: no clock is read, and
// every number is fuel, an event count or a modeled figure printed at a
// fixed precision. The full (non-quick) output is checked in as
// BENCH_paper.txt, and internal/bench's TestPaperDocument fails unless
// it regenerates byte for byte. After a change that moves a modeled
// number, regenerate it:
//
//	go run ./cmd/cage-bench > BENCH_paper.txt
//
// Usage:
//
//	cage-bench [-quick] [-exp all|table1|table2|fig4|fig14|fig15|fig16|startup|mem|security]
package main

import (
	"flag"
	"fmt"
	"os"

	"cage/internal/adversary"
	"cage/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use small problem sizes")
	exp := flag.String("exp", "all", "which experiment to run")
	flag.Parse()

	w := os.Stdout
	var err error
	switch *exp {
	case "all":
		err = bench.RunAll(w, *quick)
	case "table1":
		bench.Table1Report(w)
	case "table2":
		var matrix *adversary.Table
		if matrix, err = adversary.Run(adversary.DefaultMatrix()); err == nil {
			bench.Table2Report(w, matrix)
		}
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
