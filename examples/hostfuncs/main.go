// Hostfuncs demonstrates the public host-module API: an embedder
// extends the "env" import namespace with its own typed host functions
// — a key-value lookup, a string logger, and a deliberately slow call —
// without touching the runtime internals. It shows:
//
//   - typed adapters (cage.HostFunc1/2, cage.HostVoid1) deriving the
//     wasm signature from the Go one, including a HostStr (ptr, len)
//     string parameter read through the bounds-checked memory view;
//   - host-side fuel accounting (HostContext.ConsumeFuel) making host
//     work visible to cage.WithFuel budgets;
//   - a blocking host call being interrupted by cage.WithTimeout: the
//     host selects on HostContext.Context and the guest traps with
//     TrapInterrupted instead of hanging the pool.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cage"
)

const guest = `
extern long kv_get(long key);
extern void log_str(char* p, long n);
extern long slow_io();

long lookup_sum(long n) {
    log_str("summing", 7);
    long s = 0;
    for (long i = 0; i < n; i++) { s = s + kv_get(i); }
    return s;
}

long blocked(long x) {
    return slow_io();
}
`

func main() {
	// Host modules are part of the engine's configuration: define their
	// functions, then build the engine (which freezes them).
	hm := cage.NewHostModule("env")

	// A typed host function: long kv_get(long) — the signature is
	// derived from the Go types. ConsumeFuel charges the lookup against
	// any WithFuel budget of the in-flight call.
	store := map[int64]int64{0: 7, 1: 11, 2: 13}
	cage.HostFunc1(hm, "kv_get", func(hc *cage.HostContext, key int64) (int64, error) {
		if err := hc.ConsumeFuel(25); err != nil {
			return 0, err // budget exhausted mid-host-call
		}
		return store[key], nil
	})

	// A string parameter: (char*, long) in C, one HostStr in Go, read
	// through the bounds-checked memory view (tagged pointers welcome).
	cage.HostVoid1(hm, "log_str", func(_ *cage.HostContext, s cage.HostStr) error {
		fmt.Printf("guest says: %q\n", string(s))
		return nil
	})

	// A blocking host call that honors cancellation.
	cage.HostFunc0(hm, "slow_io", func(hc *cage.HostContext) (int64, error) {
		select {
		case <-time.After(10 * time.Second): // a slow backend
			return 1, nil
		case <-hc.Context().Done():
			return 0, hc.Context().Err()
		}
	})

	cfg := cage.FullHardening()
	cfg.HostModules = []*cage.HostModule{hm}
	eng := cage.NewEngine(cfg)
	defer eng.Close()

	mod, err := eng.CompileSource(guest)
	if err != nil {
		log.Fatal(err)
	}

	res, err := eng.Call(context.Background(), mod, "lookup_sum", []uint64{3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup_sum(3) = %d (fuel incl. host work: %d)\n", int64(res.Values[0]), res.Fuel)

	// A tight fuel budget is exhausted by the host-side debits.
	_, err = eng.Call(context.Background(), mod, "lookup_sum", []uint64{3}, cage.WithFuel(40))
	fmt.Printf("with 40 fuel: fuel exhausted = %v\n", cage.IsFuelExhausted(err))

	// The blocking host call is cut off by the per-call timeout.
	start := time.Now()
	_, err = eng.Call(context.Background(), mod, "blocked", []uint64{0},
		cage.WithTimeout(100*time.Millisecond))
	fmt.Printf("blocking host call interrupted after %v: %v\n",
		time.Since(start).Round(10*time.Millisecond), cage.IsInterrupted(err))
}
