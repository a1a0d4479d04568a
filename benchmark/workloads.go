package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// sizes fixes how many ops one block of each workload holds. A round is a
// whole number of blocks, so per-op means of deterministic quantities
// (fuel, simulated time, event counts) do not depend on how many blocks
// the time budget allowed.
type sizes struct {
	burst       int // kernel-*: consecutive requests per class
	drawn       int // kernel-*: classes drawn by seed on top of the fixed four
	tinyBlock   int // tiny-*: adds per block
	dirtyGroups int // dirty-full: groups of 16 (15 sum + 1 use-after-free)
	rotateBlock int // rotate-full: adds per block, round-robin over 4 modules
	coldBlock   int // coldstart-full: modules per server lifetime
	kernelN     int // kernel-*: problem size override, 0 keeps each kernel's own
}

var defaultSizes = sizes{burst: 16, drawn: 2, tinyBlock: 512, dirtyGroups: 16, rotateBlock: 64, coldBlock: 8}

// class is one kind of request in a workload. Gated classes make up the
// end-to-end timing and counting metrics. The kernels drawn by seed are
// not gated: they differ from seed to seed by up to 10x in cost, so a
// metric that included them would measure the draw. They still run, are
// checked against their reference, and count in attempted/failed.
type class struct {
	name  string
	gated bool
}

// op is one generated request and what the oracle expects of it.
type op struct {
	class int
	mod   int    // index of a module registered at setup; ignored when src is set
	src   string // coldstart: MiniC source to upload first
	fn    string
	args  []uint64
	want  uint64 // expected first return value, as raw bits
	f64   bool   // compare as float64 within 1e-9 relative
	trap  bool   // expects a memory-safety guest trap instead of a value
}

// workload is one traffic mix.
type workload struct {
	name, why string
	preset    string
	inproc    bool // drive Engine.CallWith instead of the HTTP surface
	clients   int
	classes   []class
	sources   []string // modules registered at setup, in op.mod order
	// stream keys the input generator; kernel-full and kernel-base64
	// share one so they issue the identical request sequence.
	stream string
	block  func(r *rand.Rand) []op
	// recycle rebuilds the server before every block. Registered modules
	// retain ~10 MB each and are never evicted.
	recycle bool
	// quiesce collects the heap before every op, off the clock. A cold
	// start allocates ~13 MB, so which ops a collection lands on decides
	// their latency (p50 4-7 ms, p99 50 ms with the collector free-running);
	// starting each from a collected heap makes the median repeat.
	quiesce bool
}

// rng derives the generator for one block from the run seed.
func (w *workload) rng(seed int64, round, block int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", w.stream, seed, round, block)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

const libcPrelude = `
extern char* malloc(long n);
extern void free(char* p);
`

// addSource is a single-function module; k makes its bytes (and so its
// content hash) distinct without changing the events a call executes.
func addSource(k int) string {
	if k == 0 {
		return "long add(long a, long b) { return a + b; }\n"
	}
	return fmt.Sprintf("long add(long a, long b) { return a + b + %d; }\n", k)
}

const dirtySource = libcPrelude + `
long sum(long n) {
    long* a = (long*)malloc(n * 8);
    long s = 0;
    for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
    free((char*)a);
    return s;
}
long uaf(long n) {
    long* a = (long*)malloc(n * 8);
    a[0] = n;
    free((char*)a);
    return a[0];
}
`

// coldSource is a module no server has seen: salt lands in a constant, so
// the bytes differ and every cache misses, while the work is the same.
// Its result has the closed form 3n(n-1)/2 + salt*n.
func coldSource(salt int64) string {
	return libcPrelude + fmt.Sprintf(`
long fill(long* a, long n) {
    for (long i = 0; i < n; i++) { a[i] = i * 3 + %d; }
    return n;
}
long total(long* a, long n) {
    long s = 0;
    for (long i = 0; i < n; i++) { s += a[i]; }
    return s;
}
long run(long n) {
    long* a = (long*)malloc(n * 8);
    fill(a, n);
    long s = total(a, n);
    free((char*)a);
    return s;
}
`, salt)
}

const (
	sumN  = 256
	coldN = 64
)

// fixedKernels are the classes every seed runs: the three kernels of
// BENCH_dispatch.json and the Fig. 15 pointer-auth 2mm.
var fixedKernels = []string{"gemm", "jacobi-1d", "atax"}

// newWorkloads builds the seven workloads for a seed.
func newWorkloads(seed int64, sz sizes) ([]*workload, error) {
	kernelFull, err := kernelWorkload("kernel-full", "full", seed, sz,
		"polybench run(n) under full: exec+mte+pac do >90% of the work, so MTE-path and fusion changes must show here")
	if err != nil {
		return nil, err
	}
	kernelBase, err := kernelWorkload("kernel-base64", "baseline64", seed, sz,
		"the identical request sequence under baseline64: bypasses mte/pac, so kernel-full/kernel-base64 is the paper's Fig. 14 ratio")
	if err != nil {
		return nil, err
	}

	tinyBlock := func(r *rand.Rand) []op {
		ops := make([]op, sz.tinyBlock)
		for i := range ops {
			a, b := r.Uint64(), r.Uint64()
			ops[i] = op{fn: "add", args: []uint64{a, b}, want: a + b}
		}
		return ops
	}
	addClass := []class{{"add", true}}

	return []*workload{
		kernelFull,
		kernelBase,
		{
			name: "tiny-http", preset: "full", clients: 2, stream: "tiny",
			why:     "add(a,b) over loopback, 2 clients: guest and restore are ~0, so transport, serve parse/lookup/admit/encode and pool handoff on the one tag do the work",
			classes: addClass, sources: []string{addSource(0)}, block: tinyBlock,
		},
		{
			name: "tiny-call", preset: "full", clients: 1, inproc: true, stream: "tiny",
			why:     "the same add through Engine.CallWith in-process: only checkout, call and checkin remain; tiny-http minus tiny-call is serve plus transport",
			classes: addClass, sources: []string{addSource(0)}, block: tinyBlock,
		},
		{
			name: "dirty-full", preset: "full", clients: 1, stream: "dirty",
			why:     "15 of 16 ops malloc and store (the restore witness fails, copy restore), a seeded 1 of 16 is a use-after-free that must trap: checkin and trap-reset paths",
			classes: []class{{"sum", true}, {"uaf", true}}, sources: []string{dirtySource},
			block: func(r *rand.Rand) []op {
				var ops []op
				for g := 0; g < sz.dirtyGroups; g++ {
					bad := r.Intn(16)
					for i := 0; i < 16; i++ {
						if i == bad {
							ops = append(ops, op{class: 1, fn: "uaf", args: []uint64{sumN}, trap: true})
						} else {
							ops = append(ops, op{class: 0, fn: "sum", args: []uint64{sumN}, want: sumN * (sumN - 1) / 2})
						}
					}
				}
				return ops
			},
		},
		{
			name: "rotate-full", preset: "full", clients: 1, stream: "rotate",
			why:     "add round-robin over 4 modules on the one tag of full: every checkout reclaims a sibling and spawns from the snapshot, never an idle hit; tiny-http is its bypass",
			classes: addClass,
			sources: []string{addSource(1), addSource(2), addSource(3), addSource(4)},
			block: func(r *rand.Rand) []op {
				ops := make([]op, sz.rotateBlock)
				for i := range ops {
					a, b := r.Uint64(), r.Uint64()
					m := i % 4
					ops[i] = op{mod: m, fn: "add", args: []uint64{a, b}, want: a + b + uint64(m+1)}
				}
				return ops
			},
		},
		{
			name: "coldstart-full", preset: "full", clients: 1, stream: "cold", recycle: true, quiesce: true,
			why:     "upload a never-seen module, invoke it once: the only workload where minicc/codegen/wasm/ir/fuse, instantiate (whole-memory tagging) and snapshot capture dominate and caches miss",
			classes: []class{{"upload+run", true}},
			block: func(r *rand.Rand) []op {
				ops := make([]op, sz.coldBlock)
				for i := range ops {
					// Seven digits, so every salt encodes to the same
					// number of LEB128 bytes and modules are equal in size.
					salt := 2_000_000 + r.Int63n(7_000_000)
					ops[i] = op{
						src: coldSource(salt), fn: "run", args: []uint64{coldN},
						want: uint64(3*coldN*(coldN-1)/2 + salt*coldN),
					}
				}
				return ops
			},
		},
	}, nil
}

// kernelWorkload builds kernel-full or kernel-base64: the fixed classes,
// then sz.drawn kernels drawn by seed from the rest of the registry.
func kernelWorkload(name, preset string, seed int64, sz sizes, why string) (*workload, error) {
	var specs []kernelSpec
	fixed := make(map[string]bool)
	for _, n := range fixedKernels {
		k, err := kernelByName(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, k)
		fixed[n] = true
	}
	specs = append(specs, ptrAuthKernel())
	gated := len(specs)

	var rest []string
	for _, n := range kernelNames() {
		if !fixed[n] {
			rest = append(rest, n)
		}
	}
	draw := rand.New(rand.NewSource(seed))
	draw.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, n := range rest[:sz.drawn] {
		k, err := kernelByName(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, k)
	}

	w := &workload{name: name, why: why, preset: preset, clients: 1, stream: "kernel"}
	want := make([]uint64, len(specs))
	for i := range specs {
		if sz.kernelN > 0 {
			specs[i].n = sz.kernelN
		}
		w.classes = append(w.classes, class{specs[i].name, i < gated})
		w.sources = append(w.sources, specs[i].source)
		want[i] = math.Float64bits(specs[i].reference(specs[i].n))
	}
	w.block = func(r *rand.Rand) []op {
		var ops []op
		// Bursts keep the pool of full's single tag on idle hits: only
		// the first request of a burst pays reclaim + spawn.
		for _, c := range r.Perm(len(specs)) {
			for i := 0; i < sz.burst; i++ {
				ops = append(ops, op{
					class: c, mod: c, fn: "run", args: []uint64{uint64(specs[c].n)},
					want: want[c], f64: true,
				})
			}
		}
		return ops
	}
	return w, nil
}

// verify checks a decoded reply against the op's oracle.
func (o *op) verify(r *reply) error {
	if r.err != nil {
		return r.err
	}
	if o.trap {
		if !r.memTrap {
			return fmt.Errorf("%s: want a memory-safety trap, got status %d value %d", o.fn, r.status, r.value)
		}
		return nil
	}
	if r.status != 200 {
		return fmt.Errorf("%s: status %d: %s", o.fn, r.status, r.body)
	}
	if o.f64 {
		got, want := math.Float64frombits(r.value), math.Float64frombits(o.want)
		if got != want && !(math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))) {
			return fmt.Errorf("%s(%d): checksum %g, reference %g", o.fn, o.args[0], got, want)
		}
		return nil
	}
	if r.value != o.want {
		return fmt.Errorf("%s%v = %d, want %d", o.fn, o.args, r.value, o.want)
	}
	return nil
}
