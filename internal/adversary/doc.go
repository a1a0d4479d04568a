// Package adversary is the security evaluation: it runs a matrix of
// adversarial scenarios against every preset configuration and
// classifies each run with the scenario's oracle. The paper's Table 2 is
// the matrix's table2 family read under baseline64 and full;
// internal/bench prints both Table 2 and the whole matrix in the paper
// document.
//
// A Scenario is a guest program (MiniC compiled by the preset's
// toolchain, or a raw wasm module) plus its oracle: the verdict the
// scenario must produce under each configuration. A run is
//
//   - exploited: it completed and the damage (or leakage) indicator
//     fired;
//   - trapped: a runtime defense aborted it, carrying the TrapClass of
//     the trap (memory-safety, sandbox, ptrauth);
//   - mitigated-timing: the attack's speculative channel is closed by
//     the hardened preset's modeled mitigations — every executed
//     return/indirect-branch site was fenced and sandbox transitions
//     flushed the BTB — observable purely in the event stream;
//   - harmless: it completed without damage (benign inputs only; in a
//     matrix cell this means the attack failed to demonstrate anything
//     and the cell is a mismatch).
//
// Three scenario families ship with the package:
//
//   - table2: the eight CVE case studies of Table2Cases. They trap with
//     the memory-safety class exactly when the configuration carries
//     the memory-safety extension, and are exploited otherwise.
//   - speculative: Spectre-style leak models — a bounds-check-bypass
//     gadget and a poisoned indirect-branch gadget. The programs are
//     architecturally benign; the leak is modeled, and the verdict is
//     derived from the event stream: a configuration mitigates the
//     scenario exactly when its fence events cover every executed
//     speculation site and a BTB flush guards the sandbox boundary.
//     Only the hardened preset does.
//   - corruption: in-sandbox corruption — intra-allocation heap and
//     stack smashing that stays inside one MTE tag granule. No
//     WebAssembly configuration can stop these (the paper's §3 threat
//     model excludes them), and the oracle expects every preset to
//     report exploited.
//
// Run executes every scenario against every preset and returns the
// Table; Table.Mismatches is the empty slice exactly when the
// implementation honors the paper's security claims.
package adversary
