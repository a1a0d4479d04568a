// Package ir is the lowered intermediate representation the execution
// engine runs: a one-time compilation pass (Lower) flattens each wasm
// function body into a dense instruction stream in which
//
//   - structured control flow (block/loop/if/else/end) is dissolved
//     into absolute-PC branches whose stack repair — the operand height
//     to keep and the values to carry — is precomputed, so execution
//     needs no control stack and no end/else re-scanning;
//   - immediates (constants, indices, memarg offsets, call signatures,
//     br_table targets) are decoded once at lower time;
//   - memory accesses are specialized to the instance configuration's
//     address-translation mode (wasm32 guard pages, wasm64 software
//     bounds checks with or without MTE tag checks, MTE sandboxing,
//     paper Figs. 12–13), eliminating per-access mode branching from
//     the hot path;
//   - per-function frame layouts are precomputed: FrameSize = params +
//     declared locals + the operand-stack high-water mark, with local
//     index i occupying frame-relative slot i, so the exec frame
//     machine can open every activation as one contiguous span of its
//     value arena — callee parameters materialize in place at the
//     caller's stack top — and never allocate on a guest→guest call.
//
// Opcode numbers are laid out for the executor's dispatch switch (see
// Op) and never persisted.
//
// The package also owns the encoding of what internal/fuse rewrites
// that stream into: the shape-generic superinstructions (OpFusedBase),
// whose ALU constituents are immediates, and the idiom opcodes
// (idiom.go), which name one concrete ALU tuple of a shape in the
// opcode so the executor never has to ask. Instr.Constituents expands
// either back to the lowered sequence it stands for.
//
// A Program is immutable after Lower and safe to share: the engine
// caches programs per (module content hash, Config) — exactly like
// compiled modules — so pooled instances of one module under one
// configuration all execute the same lowered stream and the lowering
// cost amortizes across millions of invocations.
//
// The package depends only on internal/wasm. Mapping a runtime
// configuration (core.Features, memory kind, demo flags) onto a Config
// is the exec layer's job, as is attaching the arch timing model: each
// lowered opcode has a fixed cost-event signature that the dispatch
// loop reports (interp.go's per-op hooks).
package ir
