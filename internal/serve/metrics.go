package serve

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"unsafe"

	"cage/internal/engine"
)

// counterStripes is how many independent copies of each tally a
// counters value spreads its increments across. Power of two so the
// stripe pick is a mask, sized so concurrent requests on different
// cores rarely bounce the same cache line.
const counterStripes = 8

// counterStripe is one copy of the outcome tally. The padding rounds
// the nine hot words up to two cache lines so neighbouring stripes
// never share a line — without it the striping would be cosmetic.
type counterStripe struct {
	requests    atomic.Uint64 // invoke requests received
	ok          atomic.Uint64 // 200 responses
	traps       atomic.Uint64 // guest traps (422)
	interrupted atomic.Uint64 // quota timeouts (408)
	rejected    atomic.Uint64 // admission rejections (429)
	badRequest  atomic.Uint64 // malformed/unknown-target requests (4xx)
	canceled    atomic.Uint64 // client disconnects (no response sent)
	failures    atomic.Uint64 // internal errors (500)
	fuel        atomic.Uint64 // timing-model events consumed, traps included
	_           [128 - 9*8]byte
}

// counters is one outcome-classified request tally, kept per tenant and
// per module. All fields are monotonic; gauges (queue depth, in-flight,
// pool occupancy) live on the tenant and pool instead. Increments go
// through stripe() so concurrent requests spread across padded copies
// instead of serializing on one cache line; snapshot sums the stripes.
type counters struct {
	stripes [counterStripes]counterStripe
}

// stripe picks this goroutine's copy of the tally. Goroutines have no
// visible identity, so the pick hashes the address of a stack local:
// distinct goroutines live on distinct stacks, the address costs
// nothing to produce, and the uintptr conversion never lets the
// pointer escape. Collisions only cost contention, never correctness.
func (c *counters) stripe() *counterStripe {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	p ^= p >> 15
	return &c.stripes[(p>>10)%counterStripes]
}

// CounterStats is the JSON snapshot of one counters value.
type CounterStats struct {
	Requests    uint64 `json:"requests"`
	OK          uint64 `json:"ok"`
	Traps       uint64 `json:"traps"`
	Interrupted uint64 `json:"interrupted"`
	Rejected    uint64 `json:"rejected"`
	BadRequest  uint64 `json:"bad_request"`
	Canceled    uint64 `json:"canceled"`
	Failures    uint64 `json:"failures"`
	Fuel        uint64 `json:"fuel"`
}

func (c *counters) snapshot() CounterStats {
	var out CounterStats
	for i := range c.stripes {
		s := &c.stripes[i]
		out.Requests += s.requests.Load()
		out.OK += s.ok.Load()
		out.Traps += s.traps.Load()
		out.Interrupted += s.interrupted.Load()
		out.Rejected += s.rejected.Load()
		out.BadRequest += s.badRequest.Load()
		out.Canceled += s.canceled.Load()
		out.Failures += s.failures.Load()
		out.Fuel += s.fuel.Load()
	}
	return out
}

// TenantStats is one tenant's /v1/stats entry.
type TenantStats struct {
	CounterStats
	// QueueDepth is how many requests are waiting for an admission slot
	// right now; Active how many are between admission and response.
	QueueDepth int `json:"queue_depth"`
	Active     int `json:"active"`
	// Hardened reports that the tenant's policy runs its invocations on
	// the Spectre-hardened engine.
	Hardened bool `json:"hardened,omitempty"`
}

// PoolSnapshot mirrors engine.PoolStats with JSON tags.
type PoolSnapshot struct {
	Spawned   uint64 `json:"spawned"`
	Recycled  uint64 `json:"recycled"`
	Discarded uint64 `json:"discarded"`
	Idle      int    `json:"idle"`
	Live      int    `json:"live"`
}

func poolSnapshot(s engine.PoolStats) PoolSnapshot {
	return PoolSnapshot{
		Spawned:   s.Spawned,
		Recycled:  s.Recycled,
		Discarded: s.Discarded,
		Idle:      s.Idle,
		Live:      s.Live,
	}
}

// CacheSnapshot mirrors engine.CacheStats with JSON tags.
type CacheSnapshot struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

func cacheSnapshot(s engine.CacheStats) CacheSnapshot {
	return CacheSnapshot{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries}
}

// SnapshotCacheSnapshot mirrors engine.SnapshotCacheStats with JSON
// tags: the snapshot cache's hit/miss/entry counters plus how many
// instance checkouts were served by forking a cached image, how many of
// those installed the whole image, how many pages the others rewrote in
// place (zero for a call that wrote nothing: the elided restore), and
// how many instance births in this process ran on a retired instance's
// storage or on newly made storage.
type SnapshotCacheSnapshot struct {
	CacheSnapshot
	Restores       uint64 `json:"restores"`
	RestoredPages  uint64 `json:"restored_pages"`
	FullInstalls   uint64 `json:"full_installs"`
	BirthsRecycled uint64 `json:"births_recycled"`
	BirthsFresh    uint64 `json:"births_fresh"`
}

func snapshotCacheSnapshot(s engine.SnapshotCacheStats) SnapshotCacheSnapshot {
	return SnapshotCacheSnapshot{
		CacheSnapshot:  cacheSnapshot(s.CacheStats),
		Restores:       s.Restores,
		RestoredPages:  s.RestoredPages,
		FullInstalls:   s.FullInstalls,
		BirthsRecycled: s.BirthsRecycled,
		BirthsFresh:    s.BirthsFresh,
	}
}

// ModuleStats is one module's /v1/stats entry.
type ModuleStats struct {
	CounterStats
	SizeBytes int64 `json:"size_bytes"`
	// Pool is the module's instance-pool occupancy (zero before its
	// first invocation).
	Pool PoolSnapshot `json:"pool"`
}

// Stats is the /v1/stats document.
type Stats struct {
	// Config is the server's sandbox preset name ("full", "sandbox", …).
	Config string `json:"config"`
	// MemoryMode names the linear-memory backend the dispatch tier runs
	// guard32 accesses on: "guard" (guard reservation available: vmem
	// mapping, no per-access bounds check) or "bounds" (explicit checks).
	MemoryMode string `json:"memory_mode"`
	// Modules/Programs are the engine's compiled-module and
	// lowered-program cache counters; Pools sums every module pool.
	ModuleCache  CacheSnapshot `json:"module_cache"`
	ProgramCache CacheSnapshot `json:"program_cache"`
	// Snapshots counts the post-initialization image cache and the
	// checkouts served by forking from it.
	Snapshots SnapshotCacheSnapshot `json:"snapshots"`
	Pools     PoolSnapshot          `json:"pools"`

	Tenants map[string]TenantStats `json:"tenants"`
	Modules map[string]ModuleStats `json:"modules"`
}

// writeProm renders the stats in Prometheus text exposition format,
// deterministically ordered so scrapes (and tests) are stable.
func (s *Stats) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# TYPE cage_requests_total counter\n")
	perCounter := func(labels string, c CounterStats) {
		for _, o := range []struct {
			outcome string
			n       uint64
		}{
			{"ok", c.OK},
			{"trap", c.Traps},
			{"interrupted", c.Interrupted},
			{"rejected", c.Rejected},
			{"bad_request", c.BadRequest},
			{"canceled", c.Canceled},
			{"failure", c.Failures},
		} {
			fmt.Fprintf(w, "cage_requests_total{%s,outcome=%q} %d\n", labels, o.outcome, o.n)
		}
	}
	tenants := sortedKeys(s.Tenants)
	for _, name := range tenants {
		perCounter(fmt.Sprintf("tenant=%q", name), s.Tenants[name].CounterStats)
	}
	modules := sortedKeys(s.Modules)
	for _, id := range modules {
		perCounter(fmt.Sprintf("module=%q", id), s.Modules[id].CounterStats)
	}

	fmt.Fprintf(w, "# TYPE cage_fuel_total counter\n")
	for _, name := range tenants {
		fmt.Fprintf(w, "cage_fuel_total{tenant=%q} %d\n", name, s.Tenants[name].Fuel)
	}
	for _, id := range modules {
		fmt.Fprintf(w, "cage_fuel_total{module=%q} %d\n", id, s.Modules[id].Fuel)
	}

	fmt.Fprintf(w, "# TYPE cage_queue_depth gauge\n")
	for _, name := range tenants {
		fmt.Fprintf(w, "cage_queue_depth{tenant=%q} %d\n", name, s.Tenants[name].QueueDepth)
	}
	fmt.Fprintf(w, "# TYPE cage_active gauge\n")
	for _, name := range tenants {
		fmt.Fprintf(w, "cage_active{tenant=%q} %d\n", name, s.Tenants[name].Active)
	}

	fmt.Fprintf(w, "# TYPE cage_pool_live gauge\n")
	for _, id := range modules {
		fmt.Fprintf(w, "cage_pool_live{module=%q} %d\n", id, s.Modules[id].Pool.Live)
	}
	fmt.Fprintf(w, "# TYPE cage_pool_idle gauge\n")
	for _, id := range modules {
		fmt.Fprintf(w, "cage_pool_idle{module=%q} %d\n", id, s.Modules[id].Pool.Idle)
	}
	fmt.Fprintf(w, "# TYPE cage_pool_spawned_total counter\n")
	for _, id := range modules {
		fmt.Fprintf(w, "cage_pool_spawned_total{module=%q} %d\n", id, s.Modules[id].Pool.Spawned)
	}
	fmt.Fprintf(w, "# TYPE cage_pool_recycled_total counter\n")
	for _, id := range modules {
		fmt.Fprintf(w, "cage_pool_recycled_total{module=%q} %d\n", id, s.Modules[id].Pool.Recycled)
	}

	fmt.Fprintf(w, "# TYPE cage_cache_hits_total counter\n")
	fmt.Fprintf(w, "cage_cache_hits_total{cache=\"module\"} %d\n", s.ModuleCache.Hits)
	fmt.Fprintf(w, "cage_cache_hits_total{cache=\"program\"} %d\n", s.ProgramCache.Hits)
	fmt.Fprintf(w, "cage_cache_hits_total{cache=\"snapshot\"} %d\n", s.Snapshots.Hits)
	fmt.Fprintf(w, "# TYPE cage_cache_misses_total counter\n")
	fmt.Fprintf(w, "cage_cache_misses_total{cache=\"module\"} %d\n", s.ModuleCache.Misses)
	fmt.Fprintf(w, "cage_cache_misses_total{cache=\"program\"} %d\n", s.ProgramCache.Misses)
	fmt.Fprintf(w, "cage_cache_misses_total{cache=\"snapshot\"} %d\n", s.Snapshots.Misses)

	fmt.Fprintf(w, "# TYPE cage_snapshot_restores_total counter\n")
	fmt.Fprintf(w, "cage_snapshot_restores_total %d\n", s.Snapshots.Restores)
	fmt.Fprintf(w, "# TYPE cage_snapshot_restored_pages_total counter\n")
	fmt.Fprintf(w, "cage_snapshot_restored_pages_total %d\n", s.Snapshots.RestoredPages)
	fmt.Fprintf(w, "# TYPE cage_snapshot_full_installs_total counter\n")
	fmt.Fprintf(w, "cage_snapshot_full_installs_total %d\n", s.Snapshots.FullInstalls)
	fmt.Fprintf(w, "# TYPE cage_instance_births_recycled_total counter\n")
	fmt.Fprintf(w, "cage_instance_births_recycled_total %d\n", s.Snapshots.BirthsRecycled)
	fmt.Fprintf(w, "# TYPE cage_instance_births_fresh_total counter\n")
	fmt.Fprintf(w, "cage_instance_births_fresh_total %d\n", s.Snapshots.BirthsFresh)
	fmt.Fprintf(w, "# TYPE cage_dispatch_mode gauge\n")
	fmt.Fprintf(w, "cage_dispatch_mode{memory=%q} 1\n", s.MemoryMode)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
