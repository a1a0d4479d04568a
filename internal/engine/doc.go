// Package engine provides the process-level machinery that amortizes
// Cage's per-instance hardening costs across many invocations: a keyed
// compiled-module cache and a concurrent instance pool.
//
// The paper prices two one-time costs that dominate short-lived
// executions: compiling and validating the module, and tagging the
// whole linear memory at instantiation (§7.2, Table 4/Fig. 16). A
// service handling many requests per module pays both once per request
// if it naively re-instantiates. This package lets an embedder pay them
// once per process instead:
//
//   - Cache deduplicates builds: identical keys (a content hash plus a
//     variant naming the kind of build) share one value, with
//     singleflight semantics so concurrent first requests build once.
//   - Pool recycles instances: a checkout/checkin protocol over
//     resettable instances replaces full re-instantiation with a reset
//     (in the cage facade, a restore of the module's image: the pages
//     the lifetime wrote rewritten, randomness re-seeded), and bounds
//     live instances to the §7.4 sandbox-tag budget, queueing excess
//     checkouts until an instance is returned or the checkout's context
//     ends.
//
// The package is deliberately ignorant of wasm, modules and images:
// Cache is generic over the cached value and Pool works against the
// small Resetter interface, so the cage facade can pool fully-linked
// instances (interpreter instance + hardened allocator) while tests can
// pool anything. The facade keeps one record per module — its Pool, its
// fork image, and a Cache of its images per init spec — and reports the
// images in a SnapshotCacheStats.
//
// # Concurrency model
//
// The package is engineered so the steady-state request path — cache
// hit, instance checkout, instance checkin — acquires no mutex and
// performs no allocation. Mutexes exist only on the cold edges (build,
// spawn, exhaustion, teardown).
//
// Caches are hash-sharded into 16 segments by the first key byte. Each
// shard publishes its entry table as an immutable map behind an
// atomic.Pointer: a lookup loads the pointer and reads the map with no
// lock and no CAS, so hits scale with cores and never contend with
// each other. Mutations (first build of a key, eviction of a failed
// build) take the shard mutex, clone the map, and republish — a
// read-copy-update discipline whose cost is charged to the miss, which
// is about to run a compile anyway. Singleflight is preserved per
// entry: the first goroutine to claim a key builds it while losers
// block on the entry's done channel, and failed builds are removed so
// a later lookup retries.
//
// The Pool's idle set is a fixed-capacity Treiber stack (see lifo):
// checkout pops and checkin pushes with at most two compare-and-swaps
// each, no locks, and no allocation — slots are preallocated and
// recycled through an internal free list, with ABA ruled out by a
// 32-bit version tag packed beside the slot index in each list head.
// Everything that can block takes the pool mutex instead: spawns
// reserve cap slots under it, checkouts that find the cap exhausted
// queue on a broadcast channel and abandon cleanly when their context
// ends, a checkin that finds the stack full closes its instance, and
// Close/Reclaim drain the stack. The cap is the only thing a pool
// waits on. A spawn that fails frees its slot, wakes the queue and
// fails its checkout; a budget the pool does not own — the cage
// facade's §7.4 sandbox tags, shared by every pool of an engine — is
// waited on inside the spawn (Engine.birth), under the checkout's
// context, never by the pool.
// The lock-free checkin
// and the queued checkout rendezvous through an atomic waiter count:
// a waiter registers, re-polls the fast stack once, then sleeps; a
// checkin pushes, then broadcasts only if it observes a registered
// waiter. Sequential consistency of Go atomics makes one of the two
// observations land: either the waiter's re-poll sees the push, or
// the checkin sees the waiter and wakes it.
//
// Counters (hits, misses, spawns, recycles, discards, live, idle) are
// plain atomics throughout, so Stats never touches a hot-path mutex —
// a metrics scraper cannot stall a checkout.
package engine
