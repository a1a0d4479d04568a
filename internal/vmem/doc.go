// Package vmem provides the mmap-backed guard-region linear memory
// behind the guard32 dispatch tier (WAVM-style virtual-memory bounds
// checks; ROADMAP "VM-assisted bounds").
//
// A Mapping is one anonymous PROT_NONE reservation of ReservationSize
// bytes: the full 4 GiB a 32-bit guest index can name, plus Headroom
// for the largest unchecked memarg offset and access width the guard
// lowering emits (ir.GuardMaxOffset). Exactly the committed prefix —
// the guest-visible memory — is readable and writable; every byte
// after it is unmapped in the MMU. A guard load or store therefore
// needs no Go-level bounds check at all: an out-of-bounds access
// faults in hardware, the executor (running with
// debug.SetPanicOnFault) recovers the fault panic, verifies the
// address belongs to the mapping, and converts it to the same
// TrapOutOfBounds the explicit check raises.
//
// Contract:
//
//   - Supported reports whether this build and kernel provide guard
//     mappings. It is constant per process: the lowering config's
//     Guard bit (and with it the program-cache identity) derives from
//     it once.
//   - Map reserves ReservationSize bytes and commits the first commit
//     bytes. SetCommitted grows (fresh zero pages) or shrinks
//     (decommit: the range is returned to PROT_NONE and its pages
//     discarded) the committed prefix; Unmap releases the reservation.
//   - Committed growth guarantees zeroed pages; shrink-then-grow
//     likewise. Reusing the still-committed prefix preserves its
//     contents — callers that need zeros there clear it themselves.
//   - Owns/GuestAddr classify a faulting host address, so the
//     executor's recover path re-panics on faults that are not guard
//     hits.
//
// The package compiles everywhere and no build tag selects it: 64-bit
// Linux probes the kernel once (a refused reservation means software
// bounds checks); elsewhere the stub's Supported is false and Map fails.
package vmem

// GuestLimit is the full 32-bit guest address space: the largest
// byte index a wasm32 access can name is GuestLimit-1.
const GuestLimit uint64 = 1 << 32

// Headroom is the PROT_NONE tail past GuestLimit. It must exceed the
// largest unchecked memarg offset (ir.GuardMaxOffset, 1<<20) plus the
// widest access (8 bytes); internal/exec cross-checks the two
// constants so the lowering and the reservation cannot drift apart.
const Headroom uint64 = 1 << 21

// ReservationSize is the size of one guard mapping.
const ReservationSize = GuestLimit + Headroom
