// Quickstart: compile a small C program with the Cage toolchain, run it
// hardened, and watch a heap overflow get caught by (simulated) MTE.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cage"
)

const program = `
extern char* malloc(long n);
extern void free(char* p);

long checksum(long n) {
    long* data = (long*)malloc(n * 8);
    long acc = 0;
    for (long i = 0; i < n; i++) {
        data[i] = i * 3;
        acc += data[i];
    }
    free((char*)data);
    return acc;
}

// An off-by-N write: for bad >= 0 this writes past the allocation.
long oops(long bad) {
    char* buf = malloc(16);
    buf[16 + bad] = 65;
    return (long)buf[0];
}
`

func main() {
	cfg := cage.FullHardening()
	tc := cage.NewToolchain(cfg)
	mod, err := tc.CompileSource(program)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	bin, err := mod.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d bytes of hardened wasm64\n", len(bin))

	cfg.Stdout, cfg.Stderr = os.Stdout, os.Stderr
	rt := cage.NewRuntime(cfg)
	inst, err := rt.Instantiate(mod)
	if err != nil {
		log.Fatalf("instantiate: %v", err)
	}

	res, err := inst.Call(context.Background(), "checksum", []uint64{1000})
	if err != nil {
		log.Fatalf("checksum: %v", err)
	}
	fmt.Printf("checksum(1000) = %d\n", int64(res.Values[0]))

	// Heap overflow: one byte past the allocation lands in the
	// untagged allocator metadata slot and trips the tag check.
	_, err = inst.Call(context.Background(), "oops", []uint64{0})
	if err == nil {
		log.Fatal("the overflow went unnoticed!")
	}
	if cage.IsMemorySafetyViolation(err) {
		fmt.Printf("overflow caught: %v\n", err)
	} else {
		log.Fatalf("unexpected failure: %v", err)
	}
}
