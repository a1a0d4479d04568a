package cage_test

import (
	"context"
	"fmt"
	"time"

	"cage"
)

// ExampleToolchain_CompileSource compiles a MiniC translation unit with
// the full Cage pipeline (stack sanitizer, pointer authentication) and
// runs it on a one-off hardened instance.
func ExampleToolchain_CompileSource() {
	tc := cage.NewToolchain(cage.FullHardening())
	mod, err := tc.CompileSource(`
		extern char* malloc(long n);
		extern void free(char* p);

		long sum(long n) {
		    long* a = (long*)malloc(n * 8);
		    long s = 0;
		    for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
		    free((char*)a);
		    return s;
		}`)
	if err != nil {
		panic(err)
	}
	rt := cage.NewRuntime(cage.FullHardening())
	inst, err := rt.Instantiate(mod)
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	res, err := inst.Invoke("sum", 100)
	if err != nil {
		panic(err)
	}
	fmt.Println(res[0])
	// Output: 4950
}

// ExampleEngine_Call drives the context-first invocation API: the call
// is bounded by a timeout and a deterministic fuel budget, and the
// Result reports what the call actually consumed.
func ExampleEngine_Call() {
	eng := cage.NewEngine(cage.FullHardening())
	defer eng.Close()

	mod, err := eng.CompileSource(`
		long square_sum(long n) {
		    long s = 0;
		    for (long i = 0; i < n; i++) { s = s + i * i; }
		    return s;
		}`)
	if err != nil {
		panic(err)
	}

	res, err := eng.Call(context.Background(), mod, "square_sum", []uint64{100},
		cage.WithTimeout(time.Second),
		cage.WithFuel(1_000_000))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Values[0], res.Fuel > 0 && res.Fuel < 1_000_000)

	// An insufficient budget traps deterministically.
	_, err = eng.Call(context.Background(), mod, "square_sum", []uint64{100},
		cage.WithFuel(10))
	fmt.Println(cage.IsFuelExhausted(err))
	// Output:
	// 328350 true
	// true
}

// ExampleEngine serves repeated invocations through the engine: the
// second CompileSource is a cache hit, and the invocations recycle one
// pooled instance instead of re-instantiating.
func ExampleEngine() {
	const src = `
		long fib(long n) {
		    long a = 0; long b = 1;
		    for (long i = 0; i < n; i++) { long t = a + b; a = b; b = t; }
		    return a;
		}`

	eng := cage.NewEngine(cage.FullHardening())
	defer eng.Close()

	mod, err := eng.CompileSource(src)
	if err != nil {
		panic(err)
	}
	if again, _ := eng.CompileSource(src); again != mod {
		panic("cache miss on identical source")
	}

	for _, n := range []uint64{10, 20, 30} {
		res, err := eng.Call(context.Background(), mod, "fib", []uint64{n})
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Values[0])
	}

	s := eng.Stats()
	fmt.Printf("compiles: %d, instances spawned: %d, recycled: %d\n",
		s.Cache.Misses, s.Pools.Spawned, s.Pools.Recycled)
	// Output:
	// 55
	// 6765
	// 832040
	// compiles: 1, instances spawned: 1, recycled: 3
}

// ExampleNewHostModule builds an embedder host module and passes it to
// the engine in its Config: the typed adapter derives the wasm import
// signature from the Go function, and the MiniC extern resolves
// against it.
func ExampleNewHostModule() {
	hm := cage.NewHostModule("env")
	cage.HostFunc2(hm, "powi", func(_ *cage.HostContext, base, exp int64) (int64, error) {
		r := int64(1)
		for ; exp > 0; exp-- {
			r *= base
		}
		return r, nil
	})
	cfg := cage.FullHardening()
	cfg.HostModules = []*cage.HostModule{hm}
	eng := cage.NewEngine(cfg)
	defer eng.Close()

	mod, err := eng.CompileSource(`
		extern long powi(long base, long exp);
		long run(long n) { return powi(2, n) + powi(3, 2); }`)
	if err != nil {
		panic(err)
	}
	res, err := eng.Call(context.Background(), mod, "run", []uint64{10})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Values[0])
	// Output: 1033
}
