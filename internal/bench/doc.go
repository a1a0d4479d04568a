// Package bench regenerates every table and figure of the paper's
// evaluation (§2.3, §7): Table 1 (instruction throughput/latency),
// Fig. 4 (MTE mode overhead), Table 2 (CVE mitigation), Table 3 / Fig. 14
// (PolyBench runtime overheads), Fig. 15 (pointer-auth call overhead),
// Table 4 / Fig. 16 (tagged-memory initialization), the §7.2 startup
// cost, the §7.3 memory overhead and the §7.4 security analysis, then
// the Spectre mitigation tax (hardened vs full, per kernel) and the
// adversary scenario × preset matrix Table 2 is read from.
//
// RunAll writes them as one document, the only one the repo checks in
// for the paper: the non-quick output is BENCH_paper.txt, and
// TestPaperDocument compares the two byte for byte. The document
// depends on the source tree alone: kernels run once per configuration
// on the event-counting engine, the per-core timing models price the
// same event stream for all three Tensor G3 cores, no clock is read,
// and every float is printed at a fixed precision. A change that moves
// a modeled number regenerates the file in the same diff:
//
//	go run ./cmd/cage-bench > BENCH_paper.txt
//
// Wall-time claims belong to benchmark/ (BENCHMARK.json), not to this
// package.
package bench
