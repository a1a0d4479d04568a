// Command cage-run executes a wasm binary under the Cage runtime.
//
// Modules are decoded through the engine's compiled-module cache and
// invoked on pooled instances, so -repeat N re-invocations recycle one
// hardened instance instead of re-instantiating N times.
//
// Invocations run through the context-first Call API: -timeout bounds
// each invocation's wall time (a guest infinite loop is interrupted
// with a TrapInterrupted trap) and -fuel meters it deterministically
// (TrapFuelExhausted on an exceeded budget).
//
// Usage:
//
// With -preinit fn the engine runs fn() once, snapshots the post-init
// state (Wizer-style pre-initialization), and serves every invocation
// from an instance forked off the frozen image — -repeat N then prices
// warm checkouts instead of cold starts.
//
// Usage:
//
//	cage-run [-config full|hardened|baseline32|baseline64|memsafety|ptrauth|sandbox]
//	         [-invoke name] [-args "1 2 3"] [-repeat n] [-stats]
//	         [-timeout d] [-fuel n] [-preinit fn] module.wasm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cage"
)

func main() {
	cfgName := flag.String("config", "full", "runtime configuration")
	invoke := flag.String("invoke", "main", "exported function to call")
	argStr := flag.String("args", "", "space-separated integer arguments")
	repeat := flag.Int("repeat", 1, "invoke the function n times on pooled instances")
	stats := flag.Bool("stats", false, "print engine cache/pool statistics to stderr")
	timeout := flag.Duration("timeout", 0, "per-invocation deadline (0 = none)")
	fuel := flag.Uint64("fuel", 0, "per-invocation fuel budget in timing-model events (0 = unmetered)")
	preinit := flag.String("preinit", "", "run this exported function once, snapshot the result, and fork every invocation from it")
	flag.Parse()

	if flag.NArg() != 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: cage-run [flags] module.wasm")
		os.Exit(2)
	}
	cfg, err := cage.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-run: %v\n", err)
		os.Exit(2)
	}
	bin, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-run: %v\n", err)
		os.Exit(1)
	}
	var args []uint64
	for _, f := range strings.Fields(*argStr) {
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-run: bad argument %q: %v\n", f, err)
			os.Exit(2)
		}
		args = append(args, uint64(v))
	}

	eng := cage.NewEngine(cfg)
	defer eng.Close()
	eng.Runtime().SetStdio(os.Stdout, os.Stderr)
	mod, err := eng.DecodeModule(bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-run: %v\n", err)
		os.Exit(1)
	}
	var opts []cage.CallOption
	if *timeout > 0 {
		opts = append(opts, cage.WithTimeout(*timeout))
	}
	if *fuel > 0 {
		opts = append(opts, cage.WithFuel(*fuel))
	}
	if *preinit != "" {
		snap, err := eng.Snapshot(context.Background(), mod,
			cage.WithInit(*preinit), cage.WithInitOptions(opts...))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-run: preinit %q: %v\n", *preinit, err)
			os.Exit(1)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "cage-run: preinit %q consumed %d fuel once\n",
				*preinit, snap.InitFuel())
		}
	}
	var res cage.Result
	var fuelTotal uint64
	for i := 0; i < *repeat; i++ {
		res, err = eng.Call(context.Background(), mod, *invoke, args, opts...)
		fuelTotal += res.Fuel
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-run: %v\n", err)
			os.Exit(1)
		}
	}
	for _, v := range res.Values {
		fmt.Printf("%d (0x%x)\n", int64(v), v)
	}
	if *stats {
		s := eng.Stats()
		fmt.Fprintf(os.Stderr, "cage-run: cache %d/%d hit, pool spawned %d recycled %d, fuel %d\n",
			s.Cache.Hits, s.Cache.Hits+s.Cache.Misses, s.Pools.Spawned, s.Pools.Recycled, fuelTotal)
	}
}
