package cage

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// forkGuest leaves a malloc'd block behind in init: forks inherit the
// pointer and the block's MTE tag state, then diverge privately.
const forkGuest = `
extern char* malloc(long n);
extern void free(char* p);

long p;

long setup() {
    p = (long)malloc(64);
    *(long*)p = 7;
    return 0;
}

long poke(long v) { *(long*)p = v; return 0; }
long peek(long x) { return *(long*)p; }
long drop(long x) { free((char*)p); return 0; }
`

// TestForkIsolation proves two instances forked from one snapshot share
// nothing observable: neither ordinary writes nor MTE tag transitions
// (a free in one fork retags only that fork's memory) leak across.
func TestForkIsolation(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	// Combined mode budgets one sandbox tag; §6.4 tag reuse lets the two
	// forks live side by side.
	if err := eng.EnableExtendedSandboxes(); err != nil {
		t.Fatal(err)
	}
	mod, err := eng.CompileSource(forkGuest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap, err := eng.Snapshot(ctx, mod, WithInit("setup"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.InitFunction() != "setup" || snap.InitFuel() == 0 {
		t.Fatalf("snapshot init metadata: fn=%q fuel=%d", snap.InitFunction(), snap.InitFuel())
	}

	a, err := eng.NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := eng.NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Both forks start from the post-init state.
	for name, inst := range map[string]*Instance{"a": a, "b": b} {
		res, err := inst.Call(ctx, "peek", []uint64{0})
		if err != nil || res.Values[0] != 7 {
			t.Fatalf("fork %s initial peek: %v %v", name, res.Values, err)
		}
	}

	// A write in fork a is invisible to fork b.
	if _, err := a.Call(ctx, "poke", []uint64{42}); err != nil {
		t.Fatal(err)
	}
	if res, err := b.Call(ctx, "peek", []uint64{0}); err != nil || res.Values[0] != 7 {
		t.Fatalf("fork b observed fork a's write: %v %v", res.Values, err)
	}

	// A free in fork a retags only fork a's granules: a's stale access
	// traps (use-after-free caught by MTE), while b's pointer — same
	// virtual address, b's own tag state — stays valid.
	if _, err := a.Call(ctx, "drop", []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(ctx, "peek", []uint64{0}); err == nil {
		t.Error("fork a's use-after-free was not caught")
	}
	if res, err := b.Call(ctx, "peek", []uint64{0}); err != nil || res.Values[0] != 7 {
		t.Errorf("fork a's free leaked into fork b's tag state: %v %v", res.Values, err)
	}
}

// TestConcurrentForkCheckouts hammers one snapshot from 16 goroutines
// through the pooled Call path under the 15-tag §7.4 budget, so
// checkouts genuinely queue, recycle, and fork concurrently. Run under
// -race in CI.
func TestConcurrentForkCheckouts(t *testing.T) {
	eng := NewEngine(SandboxingOnly())
	defer eng.Close()
	mod, err := eng.CompileSource(forkGuest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Snapshot(ctx, mod, WithInit("setup")); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := eng.Call(ctx, mod, "peek", []uint64{0})
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
				if res.Values[0] != 7 {
					errCh <- fmt.Errorf("goroutine %d call %d: fork saw %d, want the snapshot state 7", g, i, res.Values[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := eng.SnapshotStats()
	if st.Restores == 0 {
		t.Error("no checkout was ever served by forking the snapshot")
	}
}

// TestEngineSnapshotMemoized pins the cache contract: identical
// (module, config, init) snapshot requests share one image and one
// init execution.
func TestEngineSnapshotMemoized(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mod, err := eng.CompileSource(forkGuest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s1, err := eng.Snapshot(ctx, mod, WithInit("setup"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Snapshot(ctx, mod, WithInit("setup"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("identical snapshot requests built two images")
	}
	if st := eng.SnapshotStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("snapshot cache stats %+v: want a hit on the second request", st)
	}
}

// TestAutoSnapshotBaseline pins the automatic fast path: even without
// an explicit Engine.Snapshot, pooled resets fork from the post-start
// baseline image — and disabling auto-snapshot restores full replays
// with identical observable behavior.
func TestAutoSnapshotBaseline(t *testing.T) {
	run := func(t *testing.T, auto bool) {
		eng := NewEngine(FullHardening())
		defer eng.Close()
		eng.SetAutoSnapshot(auto)
		mod, err := eng.CompileSource(forkGuest)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			// setup + peek on one pooled instance per iteration: each
			// checkout must start from pristine state.
			if _, err := eng.Call(ctx, mod, "setup", nil); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		st := eng.SnapshotStats()
		if auto && st.Restores == 0 {
			t.Error("auto-snapshot on: no pooled reset forked the baseline image")
		}
		if !auto && st.Restores != 0 {
			t.Errorf("auto-snapshot off: %d restores still happened", st.Restores)
		}
	}
	t.Run("on", func(t *testing.T) { run(t, true) })
	t.Run("off", func(t *testing.T) { run(t, false) })
}

// TestSnapshotStatsReportRestoreCost pins what makes restore elision
// visible to an operator: a spawn from the image is one full install,
// a checkin after a read-only call rewrites no page, and a checkin after
// a store rewrites the page or two the call touched — not the memory.
func TestSnapshotStatsReportRestoreCost(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	mod, err := eng.CompileSource(forkGuest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Snapshot(ctx, mod, WithInit("setup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Call(ctx, mod, "peek", []uint64{0}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.SnapshotStats()
	if st.Restores != 6 || st.FullInstalls != 1 || st.RestoredPages != 0 {
		t.Fatalf("after a spawn and 5 read-only calls: %d restores, %d full installs, %d pages; want 6, 1, 0",
			st.Restores, st.FullInstalls, st.RestoredPages)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Call(ctx, mod, "poke", []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st = eng.SnapshotStats()
	if st.Restores != 9 || st.FullInstalls != 1 || st.RestoredPages < 3 || st.RestoredPages > 6 {
		t.Fatalf("after 3 storing calls: %d restores, %d full installs, %d pages; want 9, 1, 3–6",
			st.Restores, st.FullInstalls, st.RestoredPages)
	}
}

// TestSnapshotStatsReportBirths pins what makes storage recycling visible
// to an operator. Under full there is one sandbox tag, so alternating
// two modules makes every call reclaim the sibling and give birth to an
// instance, and from the second call on each birth runs on the storage
// the sibling just retired.
func TestSnapshotStatsReportBirths(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	ctx := context.Background()
	var mods []*Module
	for _, k := range []int{2, 3} {
		mod, err := eng.CompileSource(fmt.Sprintf("long add(long a, long b) { return a + b + %d - %d; }", k, k))
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	before := eng.SnapshotStats()
	const calls = 12
	for i := 0; i < calls; i++ {
		if res, err := eng.Call(ctx, mods[i%2], "add", []uint64{3, 4}); err != nil || res.Values[0] != 7 {
			t.Fatalf("call %d: %v, %v", i, res, err)
		}
	}
	st := eng.Stats()
	if st.Pools.Spawned != calls {
		t.Fatalf("%d calls spawned %d instances, want one each", calls, st.Pools.Spawned)
	}
	recycled, fresh := st.Snapshots.BirthsRecycled-before.BirthsRecycled, st.Snapshots.BirthsFresh-before.BirthsFresh
	if recycled < calls-1 || recycled+fresh != calls {
		t.Errorf("%d births: %d on recycled storage, %d on fresh; want all but the first recycled", calls, recycled, fresh)
	}
}
