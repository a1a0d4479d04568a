package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/minicc"
	"cage/internal/mte"
)

// --- Cache ---

func TestCacheHitSemantics(t *testing.T) {
	var c Cache[int]
	builds := 0
	build := func() (int, error) { builds++; return 42, nil }

	k1 := KeyOfString("source A", "cfg1")
	for i := 0; i < 3; i++ {
		v, err := c.GetOrBuild(k1, build)
		if err != nil || v != 42 {
			t.Fatalf("GetOrBuild = %d, %v", v, err)
		}
	}
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}

	// Same content under a different variant is a distinct entry.
	if _, err := c.GetOrBuild(KeyOfString("source A", "cfg2"), build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("build ran %d times after variant change, want 2", builds)
	}

	s := c.Stats()
	if s.Misses != 2 || s.Hits != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 2 hits, 2 entries", s)
	}
}

func TestCacheDoesNotCacheFailures(t *testing.T) {
	var c Cache[int]
	calls := 0
	failing := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 7, nil
	}
	k := KeyOfString("x", "v")
	if _, err := c.GetOrBuild(k, failing); err == nil {
		t.Fatal("first build should fail")
	}
	v, err := c.GetOrBuild(k, failing)
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v; want 7, nil", v, err)
	}
	if calls != 2 {
		t.Errorf("build ran %d times, want 2 (failure must not be cached)", calls)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[int]
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 1, nil
	}
	k := KeyOfString("shared", "v")
	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrBuild(k, build)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times across %d concurrent lookups, want 1", n, workers)
	}
	for i, v := range results {
		if v != 1 {
			t.Errorf("worker %d got %d", i, v)
		}
	}
}

// --- Pool over synthetic instances ---

// fake is a synthetic Resetter that records its lifecycle and can be
// armed to fail its next reset.
type fake struct {
	resets    atomic.Uint64
	closes    atomic.Int32
	closed    atomic.Bool
	failReset atomic.Bool
}

func (f *fake) Reset(seed uint64) error {
	f.resets.Add(1)
	if f.failReset.Load() {
		return errors.New("poisoned")
	}
	return nil
}

func (f *fake) Close() error { f.closes.Add(1); f.closed.Store(true); return nil }

// newSeeds returns a fresh reset-seed source for a test's pool.
func newSeeds() func() uint64 {
	var n atomic.Uint64
	return func() uint64 { return n.Add(1) }
}

func TestPoolCheckoutCheckinConcurrent(t *testing.T) {
	var spawned atomic.Int32
	p := NewPool(4, newSeeds(), func(context.Context) (Resetter, error) {
		spawned.Add(1)
		return &fake{}, nil
	})
	defer p.Close()

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				inst, err := p.Get()
				if err != nil {
					t.Error(err)
					return
				}
				p.Put(inst)
			}
		}()
	}
	wg.Wait()

	if n := spawned.Load(); n > 4 {
		t.Errorf("spawned %d instances, cap is 4", n)
	}
	s := p.Stats()
	if s.Recycled != workers*iters {
		t.Errorf("recycled = %d, want %d", s.Recycled, workers*iters)
	}
	if s.Live > 4 || s.Idle > 4 || s.Discarded != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestPoolIdleBound: an uncapped pool keeps at most lifoDefaultCap idle
// instances. After a burst of 300 checkouts, the checkins beyond the
// idle stack's 256 slots close their instance, so the pool ends with
// 256 idle and live and nothing counted as discarded.
func TestPoolIdleBound(t *testing.T) {
	var fakes []*fake
	p := NewPool(0, newSeeds(), func(context.Context) (Resetter, error) {
		f := &fake{}
		fakes = append(fakes, f)
		return f, nil
	})
	defer p.Close()

	const burst = 300
	out := make([]Resetter, burst)
	for i := range out {
		inst, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = inst
	}
	for _, inst := range out {
		p.Put(inst)
	}
	closed := 0
	for _, f := range fakes {
		closed += int(f.closes.Load())
	}
	s := p.Stats()
	if s.Idle != lifoDefaultCap || s.Live != lifoDefaultCap || closed != burst-lifoDefaultCap ||
		s.Recycled != lifoDefaultCap || s.Discarded != 0 {
		t.Errorf("after %d checkins: %+v, %d Close calls; want %d idle and live, %d Close calls",
			burst, s, closed, lifoDefaultCap, burst-lifoDefaultCap)
	}
}

func TestPoolDiscardsOnResetFailure(t *testing.T) {
	p := NewPool(2, newSeeds(), func(context.Context) (Resetter, error) { return &fake{}, nil })
	defer p.Close()

	inst, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	f := inst.(*fake)
	f.failReset.Store(true)
	p.Put(inst)

	if !f.closed.Load() {
		t.Error("instance with failing reset was not closed")
	}
	s := p.Stats()
	if s.Discarded != 1 || s.Live != 0 {
		t.Errorf("stats = %+v, want 1 discarded, 0 live", s)
	}

	// The slot freed by the discard must be reusable.
	next, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if next == inst {
		t.Error("discarded instance was checked out again")
	}
	p.Put(next)
}

func TestPoolBlocksAtCap(t *testing.T) {
	p := NewPool(1, newSeeds(), func(context.Context) (Resetter, error) { return &fake{}, nil })
	defer p.Close()

	inst, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Resetter)
	go func() {
		second, err := p.Get()
		if err != nil {
			t.Error(err)
		}
		got <- second
	}()
	// Give the second Get a chance to (wrongly) complete.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("second Get returned before checkin despite cap 1")
	default:
	}
	p.Put(inst)
	second := <-got
	if second != inst {
		t.Error("blocked Get did not receive the recycled instance")
	}
	p.Put(second)
}

// TestPoolGetContextCancelledWhileQueued: a checkout queued on the live
// cap must be abandonable — GetContext returns the context error, no cap
// slot leaks, and the pool keeps serving later checkouts.
func TestPoolGetContextCancelledWhileQueued(t *testing.T) {
	p := NewPool(1, newSeeds(), func(context.Context) (Resetter, error) { return &fake{}, nil })
	defer p.Close()

	inst, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := p.GetContext(ctx)
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the checkout queue on the cap
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned GetContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetContext did not observe cancellation while queued")
	}

	// The abandoned checkout must not have consumed the recycled slot.
	p.Put(inst)
	again, err := p.Get()
	if err != nil {
		t.Fatalf("Get after abandoned checkout: %v", err)
	}
	p.Put(again)
}

// TestPoolGetContextCancelledInSpawn: a spawn blocked on a shared budget
// (modelled by a spawn that waits for ctx) is abandoned with the
// checkout's context, and the reserved cap slot is returned.
func TestPoolGetContextCancelledInSpawn(t *testing.T) {
	p := NewPool(1, newSeeds(), func(ctx context.Context) (Resetter, error) {
		<-ctx.Done() // a queued budget wait that only ctx can end
		return nil, ctx.Err()
	})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.GetContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetContext = %v, want context.DeadlineExceeded", err)
	}
	if s := p.Stats(); s.Live != 0 || s.Spawned != 0 {
		t.Errorf("stats after abandoned spawn = %+v, want no live instances", s)
	}
}

// TestPoolConcurrentSpawnFailuresAllReturn is the regression test for a
// deadlock: concurrent Gets on an empty pool whose spawns all fail must
// every one return the error — a failing spawner is not a live instance
// another Get may wait on.
func TestPoolConcurrentSpawnFailuresAllReturn(t *testing.T) {
	spawnErr := errors.New("budget exhausted")
	p := NewPool(0, newSeeds(), func(context.Context) (Resetter, error) { return nil, spawnErr })
	defer p.Close()

	const workers = 8
	done := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func() {
			_, err := p.Get()
			done <- err
		}()
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, spawnErr) {
				t.Errorf("Get = %v, want spawn error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Get %d hung on concurrent spawn failure", i)
		}
	}
}

// TestPoolSpawnFailureFailsCheckout: the cap is the only thing a
// checkout queues on. With an instance checked out and room under the
// cap, a Get whose spawn fails returns the spawn's error at once — it
// does not wait for the live instance's checkin — and frees the cap
// slot it reserved.
func TestPoolSpawnFailureFailsCheckout(t *testing.T) {
	spawnErr := errors.New("guard reservation refused")
	first := true
	p := NewPool(0, newSeeds(), func(context.Context) (Resetter, error) {
		if first {
			first = false
			return &fake{}, nil
		}
		return nil, spawnErr
	})
	defer p.Close()

	inst, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(inst)
	got := make(chan error, 1)
	go func() {
		_, err := p.Get()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, spawnErr) {
			t.Errorf("Get whose spawn failed = %v, want the spawn error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Get whose spawn failed waited for the live instance's checkin")
	}
	if s := p.Stats(); s.Live != 1 || s.Spawned != 1 {
		t.Errorf("stats after failed spawn = %+v, want 1 live, 1 spawned", s)
	}
}

func TestPoolClosedGetFails(t *testing.T) {
	p := NewPool(0, newSeeds(), func(context.Context) (Resetter, error) { return &fake{}, nil })
	inst, _ := p.Get()
	p.Put(inst)
	p.Close()
	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Get after Close = %v, want ErrPoolClosed", err)
	}
	if !inst.(*fake).closed.Load() {
		t.Error("idle instance not closed by pool Close")
	}
}

// --- Pool over real hardened instances ---

const poolSource = `
extern char* malloc(long n);
extern void free(char* p);

long sum(long n) {
    long* a = (long*)malloc(n * 8);
    long s = 0;
    for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
    free((char*)a);
    return s;
}

long uaf(void) {
    long* a = (long*)malloc(32);
    a[0] = 9;
    free((char*)a);
    return a[0];
}
`

// hardenedInstance pairs an interpreter instance with its allocator and
// the image of both captured at spawn, the unit the cage facade pools: a
// reset restores the image.
type hardenedInstance struct {
	inst  *exec.Instance
	a     *alloc.Allocator
	birth *exec.Snapshot
	heap  alloc.HeapState
}

func (h *hardenedInstance) Reset(seed uint64) error {
	if err := h.inst.RestoreFromSnapshot(h.birth, seed); err != nil {
		return err
	}
	h.a.Restore(h.heap)
	return nil
}

func (h *hardenedInstance) Close() error { return h.inst.Close() }

// spawnHardened builds a spawner compiling poolSource once and
// instantiating it under full memory safety.
func spawnHardened(t *testing.T) func(context.Context) (Resetter, error) {
	t.Helper()
	file, err := minicc.Parse(poolSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minicc.Analyze(file, minicc.Layout64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := codegen.Compile(prog, codegen.Options{Wasm64: true, StackSanitizer: true})
	if err != nil {
		t.Fatal(err)
	}
	var seeds atomic.Uint64
	return func(context.Context) (Resetter, error) {
		host := &alloc.Host{}
		inst, err := exec.NewInstance(m, exec.Config{
			Features:    core.Features{MemSafety: true, MTEMode: mte.ModeSync},
			HostModules: alloc.HostModules(),
			HostData:    host,
			Seed:        seeds.Add(1),
		})
		if err != nil {
			return nil, err
		}
		heapBase, ok := inst.GlobalValue("__heap_base")
		if !ok {
			return nil, fmt.Errorf("module lacks __heap_base")
		}
		host.A, err = alloc.New(inst, heapBase)
		if err != nil {
			return nil, err
		}
		birth, err := inst.Snapshot()
		if err != nil {
			return nil, err
		}
		return &hardenedInstance{inst: inst, a: host.A, birth: birth, heap: host.A.Snapshot()}, nil
	}
}

// TestPoolTrapDoesNotPoisonNextCheckout is the regression test for the
// core pooling guarantee: a memory-safety trap mid-invocation leaves
// arbitrary state behind (live segments, latched faults, a half-written
// heap), and the checkin reset must scrub all of it before the instance
// is visible again.
func TestPoolTrapDoesNotPoisonNextCheckout(t *testing.T) {
	p := NewPool(1, newSeeds(), spawnHardened(t))
	defer p.Close()

	// First lifetime: trap on a use-after-free.
	r, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	h := r.(*hardenedInstance)
	if _, err := h.inst.Invoke("uaf"); err == nil {
		t.Fatal("use-after-free did not trap under MemSafety")
	}
	p.Put(r)

	// Next checkouts (cap 1, so the same recycled instance) must behave
	// like a fresh instantiation.
	for i := 0; i < 3; i++ {
		r, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		h := r.(*hardenedInstance)
		res, err := h.inst.Invoke("sum", 100)
		if err != nil {
			t.Fatalf("checkout %d after trap: %v", i, err)
		}
		if res[0] != 4950 {
			t.Fatalf("checkout %d after trap: sum = %d, want 4950", i, res[0])
		}
		p.Put(r)
	}
	if s := p.Stats(); s.Spawned != 1 {
		t.Errorf("spawned = %d, want 1 (instance must be recycled, not respawned)", s.Spawned)
	}
}

func TestPoolConcurrentRealInstances(t *testing.T) {
	p := NewPool(4, newSeeds(), spawnHardened(t))
	defer p.Close()

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r, err := p.Get()
				if err != nil {
					t.Error(err)
					return
				}
				h := r.(*hardenedInstance)
				res, err := h.inst.Invoke("sum", 50)
				if err != nil {
					t.Error(err)
				} else if res[0] != 1225 {
					t.Errorf("sum = %d, want 1225", res[0])
				}
				p.Put(r)
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.Spawned > 4 {
		t.Errorf("spawned = %d, cap is 4", s.Spawned)
	}
}
