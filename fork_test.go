package cage

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cage/internal/wasm"
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
	// Combined mode budgets one sandbox tag; §6.4 tag reuse lets the two
	// forks live side by side.
	cfg := FullHardening()
	cfg.ExtendedSandboxes = true
	eng := NewEngine(cfg)
	defer eng.Close()
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

// TestAutoSnapshotBaseline pins the automatic image: even without an
// explicit Engine.Snapshot, pooled resets fork from the post-start
// baseline image. The automatic image is always on; the subtest keeps
// that name.
func TestAutoSnapshotBaseline(t *testing.T) {
	t.Run("on", func(t *testing.T) {
		eng := NewEngine(FullHardening())
		defer eng.Close()
		mod, err := eng.CompileSource(forkGuest)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			// One pooled instance: each checkout must start from the
			// pristine state for setup's malloc to succeed.
			if _, err := eng.Call(ctx, mod, "setup", nil); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if st := eng.SnapshotStats(); st.Restores == 0 {
			t.Error("no pooled reset forked the baseline image")
		}
	})
}

// signAtStartModule is a hand-built module whose start function signs a
// pointer (i64.const 0x1000; i64.pointer_sign; drop) and whose sign(x)
// returns x signed under the instance's PAC modifier.
func signAtStartModule() *Module {
	m := &wasm.Module{}
	start := m.AddType(wasm.FuncType{})
	unary := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []wasm.Function{
		{TypeIdx: start, Body: []wasm.Instr{wasm.I64Const(0x1000), wasm.PointerSign(), wasm.Op(wasm.OpDrop), wasm.End()}},
		{TypeIdx: unary, Body: []wasm.Instr{wasm.LocalGet(0), wasm.PointerSign(), wasm.End()}},
	}
	m.Start = new(uint32) // function 0
	m.Exports = []wasm.Export{{Name: "sign", Kind: wasm.ExportFunc, Idx: 1}}
	return &Module{wasm: m}
}

// TestStartSignedModuleKeepsModifiersPerLifetime: the image of a module
// whose start function signed a pointer carries signatures, so its
// forks adopt its keys. The engine registers no automatic image for such
// a module — every lifetime would share one PAC modifier, and a pointer
// leaked from one would authenticate in all (§6.3) — so each call runs
// on a fresh birth with a modifier of its own. An explicit
// Engine.Snapshot is the opt-in to shared keys.
func TestStartSignedModuleKeepsModifiersPerLifetime(t *testing.T) {
	eng := NewEngine(PointerAuthOnly())
	defer eng.Close()
	mod := signAtStartModule()
	ctx := context.Background()
	signatures := func() map[uint64]int {
		t.Helper()
		seen := make(map[uint64]int)
		for i := 0; i < 4; i++ {
			res, err := eng.Call(ctx, mod, "sign", []uint64{0x2000})
			if err != nil {
				t.Fatal(err)
			}
			seen[res.Values[0]]++
		}
		return seen
	}
	if seen := signatures(); len(seen) != 4 {
		t.Errorf("4 calls signed 0x2000 as %x: lifetimes share a PAC modifier", seen)
	}
	if _, err := eng.Snapshot(ctx, mod); err != nil {
		t.Fatal(err)
	}
	if seen := signatures(); len(seen) != 1 {
		t.Errorf("4 calls forked from an explicit snapshot signed 0x2000 as %x, want one shared signature", seen)
	}
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
