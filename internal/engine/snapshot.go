package engine

// SnapshotCacheStats counts an embedder's snapshot images — the cache
// counters of the images it memoizes — and the restores they serve. The
// package keeps no images: the cage facade keeps them per module and
// fills this in.
type SnapshotCacheStats struct {
	CacheStats
	// Restores counts instance forks served from an image (pool spawns,
	// resets, and explicit NewFromSnapshot calls).
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
	// the pages it wrote) and on newly made storage. The embedder fills
	// these in from its instance layer, where they are process-wide.
	BirthsRecycled uint64
	BirthsFresh    uint64
}
