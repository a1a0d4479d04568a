// Package bench regenerates every table and figure of the paper's
// evaluation (§2.3, §7): Table 1 (instruction throughput/latency),
// Fig. 4 (MTE mode overhead), Table 2 (CVE mitigation), Table 3 / Fig. 14
// (PolyBench runtime overheads), Fig. 15 (pointer-auth call overhead),
// Table 4 / Fig. 16 (tagged-memory initialization), the §7.2 startup
// cost, the §7.3 memory overhead, and the §7.4 security analysis.
//
// Beside the paper it produces the deterministic document the repo
// checks in: the Spectre-mitigation record (mitigation.go,
// BENCH_mitigation.json).
//
// Executions are deterministic: kernels run once per configuration on
// the event-counting engine, and the per-core timing models price the
// same event stream for all three Tensor G3 cores. Wall-time claims
// belong to benchmark/ (BENCHMARK.json), not to this package.
package bench
