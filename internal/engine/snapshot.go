package engine

import "sync/atomic"

// SnapshotCache memoizes frozen post-initialization instance images,
// sitting alongside the program cache in the engine's amortization
// story: the program cache pays lowering once per (module, config), the
// snapshot cache pays start/init execution and whole-memory tagging
// once per (module, config, init) — after which every instance is a
// fork, not a rebuild. Like the rest of the package it is ignorant of
// wasm: V is whatever image the embedder freezes (the cage facade
// caches its *Snapshot pairing instance state with allocator state).
//
// On top of Cache's hit/miss/singleflight accounting it counts
// restores — forks served from a cached image — which is the number
// that makes the cache worth having, and what they cost: whole-image
// installs versus pages rewritten in place. The zero value is ready to
// use.
type SnapshotCache[V any] struct {
	cache         Cache[V]
	restores      atomic.Uint64
	restoredPages atomic.Uint64
	fullInstalls  atomic.Uint64
}

// SnapshotCacheStats extends the cache counters with restore
// accounting.
type SnapshotCacheStats struct {
	CacheStats
	// Restores counts instance forks served from a cached snapshot
	// (pool spawns, resets, and explicit NewFromSnapshot calls).
	Restores uint64
	// RestoredPages sums the 4 KiB pages that in-place restores rewrote
	// (a reset of an instance already holding the image rewrites only
	// the pages its call dirtied; none, when it wrote nothing).
	RestoredPages uint64
	// FullInstalls counts the restores that installed the whole image
	// instead: spawns from the snapshot, an instance's first reset onto
	// an image, a reset after memory.grow. Restores − FullInstalls is
	// the number of in-place restores RestoredPages is spread over.
	FullInstalls uint64
	// BirthsRecycled and BirthsFresh count the instance births that ran
	// on a retired instance's storage (memory and tag array scrubbed by
	// the pages it wrote) and on newly made storage. The cache does not
	// see births: the embedder fills these in from its instance layer,
	// where they are process-wide.
	BirthsRecycled uint64
	BirthsFresh    uint64
}

// GetOrBuild returns the cached snapshot for key, building (capturing)
// it on first use with singleflight semantics; failed captures are not
// cached and will be retried.
func (c *SnapshotCache[V]) GetOrBuild(key Key, build func() (V, error)) (V, error) {
	return c.cache.GetOrBuild(key, build)
}

// NoteRestore records one fork served from a cached snapshot: pages is
// the number of pages an in-place restore rewrote, or negative for a
// whole-image install.
func (c *SnapshotCache[V]) NoteRestore(pages int) {
	c.restores.Add(1)
	switch {
	case pages < 0:
		c.fullInstalls.Add(1)
	case pages > 0:
		c.restoredPages.Add(uint64(pages))
	}
}

// Stats returns a snapshot of the cache and restore counters.
func (c *SnapshotCache[V]) Stats() SnapshotCacheStats {
	return SnapshotCacheStats{
		CacheStats:    c.cache.Stats(),
		Restores:      c.restores.Load(),
		RestoredPages: c.restoredPages.Load(),
		FullInstalls:  c.fullInstalls.Load(),
	}
}
