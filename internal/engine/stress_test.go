package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The stress suite drives the sharded caches and the lock-free pool
// with 64 goroutines each; run under -race it checks the fast paths'
// happens-before edges, and in any mode it checks the counters and
// the no-leak invariants the serve layer depends on.

const stressWorkers = 64

// TestStressCacheHitStorm hammers one hot key plus a sharded spread of
// warm keys from 64 goroutines and checks that every lookup after the
// first resolves to the same value with no lost hits.
func TestStressCacheHitStorm(t *testing.T) {
	var c Cache[int]
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = KeyOfString(fmt.Sprintf("warm-%d", i), "stress")
	}
	var builds atomic.Uint64
	for _, k := range keys {
		k := k
		if _, err := c.GetOrBuild(k, func() (int, error) {
			builds.Add(1)
			return int(k.Hash[0]), nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := keys[rng.Intn(len(keys))]
				v, err := c.GetOrBuild(k, func() (int, error) {
					builds.Add(1)
					return -1, nil
				})
				if err != nil || v != int(k.Hash[0]) {
					panic(fmt.Sprintf("storm lookup: v=%d err=%v", v, err))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := builds.Load(); got != uint64(len(keys)) {
		t.Fatalf("builds = %d, want %d (storm must be all hits)", got, len(keys))
	}
	s := c.Stats()
	if s.Entries != len(keys) {
		t.Fatalf("Entries = %d, want %d", s.Entries, len(keys))
	}
	wantHits := uint64(stressWorkers * 2000)
	if s.Hits != wantHits {
		t.Fatalf("Hits = %d, want %d", s.Hits, wantHits)
	}
	if s.Misses != uint64(len(keys)) {
		t.Fatalf("Misses = %d, want %d", s.Misses, len(keys))
	}
}

// TestStressCacheMissSingleflight releases 64 goroutines at once onto
// each of several cold keys and asserts exactly one build per key, with
// every loser receiving the winner's value.
func TestStressCacheMissSingleflight(t *testing.T) {
	var c Cache[string]
	const keyCount = 8
	var builds [keyCount]atomic.Uint64

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ki := w % keyCount
			k := KeyOfString(fmt.Sprintf("cold-%d", ki), "stress")
			v, err := c.GetOrBuild(k, func() (string, error) {
				builds[ki].Add(1)
				time.Sleep(time.Millisecond) // widen the join window
				return fmt.Sprintf("built-%d", ki), nil
			})
			if err != nil || v != fmt.Sprintf("built-%d", ki) {
				panic(fmt.Sprintf("singleflight lookup: v=%q err=%v", v, err))
			}
		}(w)
	}
	close(start)
	wg.Wait()

	for ki := range builds {
		if got := builds[ki].Load(); got != 1 {
			t.Fatalf("key %d built %d times, want exactly 1", ki, got)
		}
	}
	s := c.Stats()
	if s.Misses != keyCount {
		t.Fatalf("Misses = %d, want %d", s.Misses, keyCount)
	}
	if s.Hits != uint64(stressWorkers-keyCount) {
		t.Fatalf("Hits = %d, want %d", s.Hits, stressWorkers-keyCount)
	}
}

// stressInst is a Resetter that checks the single-owner invariant: the
// pool must never hand one instance to two checkouts at once.
type stressInst struct {
	inUse  atomic.Bool
	resets atomic.Uint64
	closed atomic.Bool
}

func (s *stressInst) Reset(seed uint64) error {
	s.resets.Add(1)
	return nil
}

func (s *stressInst) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		panic("stressInst closed twice")
	}
	return nil
}

// TestStressPoolChurn runs 64 goroutines of checkout/compute/checkin
// churn with random discards and random ctx-abandoned checkouts over a
// capped pool, then checks ownership was always exclusive and the
// final accounting balances.
func TestStressPoolChurn(t *testing.T) {
	const cap = 8
	var spawned atomic.Uint64
	p := NewPool(cap, func(ctx context.Context) (Resetter, error) {
		spawned.Add(1)
		return &stressInst{}, nil
	})

	const perWorker = 500
	var wg sync.WaitGroup
	var discards, abandons atomic.Uint64
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < perWorker; i++ {
				roll := rng.Intn(100)
				if roll < 5 {
					// Abandon a queued checkout via an already-dead ctx
					// (the queue is usually non-empty: 64 workers, cap 8).
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if inst, err := p.GetContext(ctx); err == nil {
						// The fast path may win before noticing ctx; fine —
						// we own the instance and must return it.
						p.Put(inst)
					} else {
						abandons.Add(1)
					}
					continue
				}
				inst, err := p.Get()
				if err != nil {
					panic(err)
				}
				si := inst.(*stressInst)
				if !si.inUse.CompareAndSwap(false, true) {
					panic("instance checked out twice")
				}
				if si.closed.Load() {
					panic("checked out a closed instance")
				}
				si.inUse.Store(false)
				if roll < 10 {
					p.Discard(inst)
					discards.Add(1)
				} else {
					p.Put(inst)
				}
			}
		}(w)
	}
	wg.Wait()

	s := p.Stats()
	if s.Live != s.Idle {
		t.Fatalf("after churn: Live=%d Idle=%d — checked-out instances leaked", s.Live, s.Idle)
	}
	if s.Live > cap {
		t.Fatalf("Live=%d exceeds cap %d", s.Live, cap)
	}
	if s.Spawned != spawned.Load() {
		t.Fatalf("Spawned=%d, spawn fn ran %d times", s.Spawned, spawned.Load())
	}
	if s.Spawned > uint64(cap+int(discards.Load())) {
		t.Fatalf("Spawned=%d, want ≤ cap(%d)+discards(%d)", s.Spawned, cap, discards.Load())
	}
	if s.Discarded != discards.Load() {
		t.Fatalf("Discarded=%d, want %d", s.Discarded, discards.Load())
	}
	p.Close()
	if after := p.Stats(); after.Live != 0 || after.Idle != 0 {
		t.Fatalf("after Close: Live=%d Idle=%d, want 0/0", after.Live, after.Idle)
	}
}

// TestStressPoolTagExhaustion models §7.4 tag contention: a pool whose
// spawn fails once the shared budget is taken. 64 checkouts contend for
// 4 instances; every one must either get an instance or abandon on its
// own ctx, queued checkouts must drain roughly in order (FIFO-ish:
// broadcast wakeups do not starve anyone), and nothing leaks.
func TestStressPoolTagExhaustion(t *testing.T) {
	const budget = 4
	var tags atomic.Int64
	errBudget := errors.New("tag budget exhausted")
	p := NewPool(0 /* cap does not see the shared budget */, func(ctx context.Context) (Resetter, error) {
		for {
			n := tags.Load()
			if n >= budget {
				return nil, errBudget
			}
			if tags.CompareAndSwap(n, n+1) {
				return &stressInst{}, nil
			}
		}
	})

	var served, abandoned atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 104729))
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(5))*time.Millisecond)
				inst, err := p.GetContext(ctx)
				cancel()
				switch {
				case err == nil:
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					p.Put(inst)
					served.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					abandoned.Add(1)
				case errors.Is(err, errBudget):
					// Legal only in the startup race: a spawn can lose the
					// budget before any winner has registered as live.
				default:
					panic(fmt.Sprintf("unexpected checkout error: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no checkout ever succeeded under tag contention")
	}
	s := p.Stats()
	if s.Live != s.Idle {
		t.Fatalf("Live=%d Idle=%d — contended checkouts leaked instances", s.Live, s.Idle)
	}
	if s.Live > budget {
		t.Fatalf("Live=%d exceeds shared budget %d", s.Live, budget)
	}
	if got := tags.Load(); got != int64(s.Live) {
		t.Fatalf("budget holds %d tags but pool reports %d live", got, s.Live)
	}
	t.Logf("served=%d abandoned=%d live=%d", served.Load(), abandoned.Load(), s.Live)
}

// TestStressPoolQueueFIFOIsh checks that under sustained exhaustion the
// condvar queue drains without starvation: with checkins trickling in
// one at a time, every one of 64 queued checkouts completes.
func TestStressPoolQueueFIFOIsh(t *testing.T) {
	p := NewPool(1, func(ctx context.Context) (Resetter, error) {
		return &stressInst{}, nil
	})
	first, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := p.GetContext(context.Background())
			if err != nil {
				panic(err)
			}
			done.Add(1)
			p.Put(inst)
		}()
	}

	// Release the single instance; each checkin hands it to exactly one
	// of the remaining waiters until all 64 have held it.
	p.Put(first)
	deadline := time.Now().Add(10 * time.Second)
	for done.Load() < stressWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("queue starved: only %d/%d waiters served", done.Load(), stressWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	s := p.Stats()
	if s.Spawned != 1 {
		t.Fatalf("Spawned=%d, want 1 (everyone recycles the same instance)", s.Spawned)
	}
	if s.Recycled != stressWorkers+1 {
		t.Fatalf("Recycled=%d, want %d", s.Recycled, stressWorkers+1)
	}
}
