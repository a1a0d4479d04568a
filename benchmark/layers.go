package main

// layers.go is the only file of the benchmark that imports cage/internal/*.
// Everything else talks to the system through package cage, the HTTP wire
// contract and the adaptors below, so a refactor of an internal package
// touches this one file of the benchmark and nothing else.

import (
	"fmt"
	"net/http"
	"time"

	"cage"
	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/minicc"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/polybench"
	"cage/internal/profile"
	"cage/internal/serve"
	"cage/internal/wasm"
)

// events is the per-call architectural event tally every reply carries.
type events = arch.Counter

// ---- serve ----

// server is the daemon under test: serve.New with a preset and nothing
// else set, which is what cage-serve runs by default.
type server struct{ s *serve.Server }

func newServer(preset string) (*server, error) {
	cfg, err := cage.ConfigByName(preset)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Options{Config: cfg, ConfigName: preset})
	if err != nil {
		return nil, err
	}
	return &server{s: s}, nil
}

func (s *server) handler() http.Handler { return s.s.Handler() }
func (s *server) close()                { s.s.Close() }

// serverCounters is the slice of /v1/stats the per-layer metrics read,
// as monotonic totals; callers subtract two snapshots.
type serverCounters struct {
	requests, traps, rejected uint64
	spawned, restores         uint64
	progHits, progMisses      uint64
	modHits, modMisses        uint64
}

func (s *server) counters() serverCounters {
	st := s.s.StatsSnapshot()
	var c serverCounters
	for _, t := range st.Tenants {
		c.requests += t.Requests
		c.traps += t.Traps
		c.rejected += t.Rejected
	}
	c.spawned = st.Pools.Spawned
	c.restores = st.Snapshots.Restores
	c.progHits, c.progMisses = st.ProgramCache.Hits, st.ProgramCache.Misses
	c.modHits, c.modMisses = st.ModuleCache.Hits, st.ModuleCache.Misses
	return c
}

func (c serverCounters) add(o serverCounters) serverCounters {
	return serverCounters{
		requests: c.requests + o.requests,
		traps:    c.traps + o.traps, rejected: c.rejected + o.rejected,
		spawned: c.spawned + o.spawned, restores: c.restores + o.restores,
		progHits: c.progHits + o.progHits, progMisses: c.progMisses + o.progMisses,
		modHits: c.modHits + o.modHits, modMisses: c.modMisses + o.modMisses,
	}
}

func (c serverCounters) sub(o serverCounters) serverCounters {
	return serverCounters{
		requests: c.requests - o.requests,
		traps:    c.traps - o.traps, rejected: c.rejected - o.rejected,
		spawned: c.spawned - o.spawned, restores: c.restores - o.restores,
		progHits: c.progHits - o.progHits, progMisses: c.progMisses - o.progMisses,
		modHits: c.modHits - o.modHits, modMisses: c.modMisses - o.modMisses,
	}
}

// ---- arch ----

var (
	coreX3   = arch.NewCortexX3()
	coreA510 = arch.NewCortexA510()

	eventByName = func() map[string]arch.Event {
		m := make(map[string]arch.Event, arch.NumEvents)
		for e := arch.Event(0); e < arch.NumEvents; e++ {
			m[e.String()] = e
		}
		return m
	}()
)

// eventsFromWire rebuilds the tally from a reply's "events" object.
func eventsFromWire(wire map[string]uint64) (events, error) {
	var ev events
	for name, n := range wire {
		e, ok := eventByName[name]
		if !ok {
			return ev, fmt.Errorf("reply names unknown event %q", name)
		}
		ev.Add(e, n)
	}
	return ev, nil
}

// meanCycles prices the mean op of n ops whose events total is given. Each
// event's mean count is one correctly rounded division of two integers, so
// the result is bit-identical for any whole number of identical blocks:
// that is what lets sim_us_per_op repeat exactly between runs that fitted
// different op counts into their time budget.
func meanCycles(total *events, n int, core *arch.Core) float64 {
	var cycles float64
	for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
		if k := total.Get(ev); k != 0 {
			cycles += float64(k) / float64(n) * core.Wasm[ev]
		}
	}
	return cycles
}

func simMicrosX3(total *events, n int) float64 {
	return coreX3.Millis(meanCycles(total, n, coreX3)) * 1e3
}
func cyclesX3(total *events, n int) float64   { return meanCycles(total, n, coreX3) }
func cyclesA510(total *events, n int) float64 { return meanCycles(total, n, coreA510) }

func tagChecks(ev *events) uint64 {
	return ev.Get(arch.EvTagCheckLoad) + ev.Get(arch.EvTagCheckStore)
}
func tagStores(ev *events) uint64 { return ev.Get(arch.EvSTGGranule) }
func pacOps(ev *events) uint64    { return ev.Get(arch.EvPACSign) + ev.Get(arch.EvPACAuth) }

// ---- polybench ----

// kernelSpec is one polybench program with its independent Go reference.
type kernelSpec struct {
	name      string
	source    string
	n         int
	reference func(n int) float64
}

func kernelByName(name string) (kernelSpec, error) {
	k, err := polybench.ByName(name)
	if err != nil {
		return kernelSpec{}, err
	}
	return kernelSpec{name: k.Name, source: k.Source, n: k.BenchN, reference: k.Reference}, nil
}

// kernelNames lists the registry in registration order.
func kernelNames() []string {
	var names []string
	for _, k := range polybench.Kernels() {
		names = append(names, k.Name)
	}
	return names
}

// ptrAuthKernel is the Fig. 15 2mm variant whose inner product sits
// behind a signed vtable pointer. Its BenchN (48) is a 30 ms call, so the
// benchmark runs it at the plain 2mm size.
func ptrAuthKernel() kernelSpec {
	k := polybench.TwoMMVariant(polybench.CallAuthenticated)
	return kernelSpec{name: k.Name, source: k.Source, n: 24, reference: k.Reference}
}

// ---- toolchain, called stage by stage ----

// toolchainCounts are the sizes the stages leave behind.
type toolchainCounts struct {
	moduleBytes, irInstrs, fusedOps int
}

// probeToolchain runs MiniC source through every stage that CompileSource
// and the first checkout run, one span per stage.
func probeToolchain(rec *recorder, req int, src string, cfg cage.Config) (toolchainCounts, error) {
	var tc toolchainCounts
	layout := minicc.Layout64
	if !cfg.Wasm64 {
		layout = minicc.Layout32
	}
	s := rec.start("minicc.parse_analyze", 0, req)
	file, err := minicc.Parse(src)
	if err != nil {
		return tc, err
	}
	prog, err := minicc.Analyze(file, layout)
	rec.end(s)
	if err != nil {
		return tc, err
	}

	s = rec.start("codegen.compile", 0, req)
	m, err := codegen.Compile(prog, codegen.Options{
		Wasm64: cfg.Wasm64, StackSanitizer: cfg.MemorySafety, PtrAuth: cfg.PointerAuth,
	})
	rec.end(s)
	if err != nil {
		return tc, err
	}

	s = rec.start("wasm.encode", 0, req)
	bin, err := wasm.Encode(m)
	rec.end(s)
	if err != nil {
		return tc, err
	}
	tc.moduleBytes = len(bin)

	s = rec.start("wasm.decode_validate", 0, req)
	dec, err := wasm.Decode(bin)
	if err == nil {
		err = wasm.Validate(dec)
	}
	rec.end(s)
	if err != nil {
		return tc, err
	}

	lcfg := exec.LowerConfig(m, exec.Config{Features: cfg.Features()})
	s = rec.start("ir.lower", 0, req)
	p, err := ir.Lower(m, lcfg)
	rec.end(s)
	if err != nil {
		return tc, err
	}
	for i := range p.Funcs {
		tc.irInstrs += len(p.Funcs[i].Code)
	}

	s = rec.start("fuse.fuse", 0, req)
	fp := fuse.Fuse(p, profile.Default())
	rec.end(s)
	for i := range fp.Funcs {
		for _, in := range fp.Funcs[i].Code {
			if in.Op.IsFused() {
				tc.fusedOps++
			}
		}
	}
	return tc, nil
}

// probeInstance times the three things a pool does to an instance outside
// a call: build it (§7.2 whole-memory tagging included), freeze it into a
// snapshot image, and restore it from the image after a dirty call.
func probeInstance(rec *recorder, req int, src string, cfg cage.Config) error {
	mod, err := cage.NewToolchain(cfg).CompileSource(src)
	if err != nil {
		return err
	}
	rt := cage.NewRuntime(cfg)
	// The first Instantiate lowers and fuses the program; ir.lower and
	// fuse.fuse have their own spans, so that one is not timed.
	warm, err := rt.Instantiate(mod)
	if err != nil {
		return err
	}
	warm.Close()

	s := rec.start("exec.instantiate", 0, req)
	inst, err := rt.Instantiate(mod)
	rec.end(s)
	if err != nil {
		return err
	}
	defer inst.Close()

	s = rec.start("exec.snapshot_capture", 0, req)
	snap, err := inst.Raw().Snapshot()
	rec.end(s)
	if err != nil {
		return err
	}
	defer snap.Close()

	// Restore twice: the first adopts the image, the second is the
	// steady-state dirty checkin the pool pays.
	for i := 0; i < 2; i++ {
		inst.Raw().MarkMemoryDirty()
		var sp int
		if i == 1 {
			sp = rec.start("exec.restore", 0, req)
		}
		err = inst.Raw().RestoreFromSnapshot(snap, uint64(req)+2)
		if i == 1 {
			rec.end(sp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- simulated hardware and allocator, called directly ----

// hardwareCosts are host nanoseconds per simulated-hardware operation.
type hardwareCosts struct {
	mteCheckNS, mteSetTagNSPerKB, pacSignAuthNS, allocMallocFreeNS float64
}

// sink keeps the probe loops' results alive.
var sink uint64

// probeHardware prices mte.Memory.CheckAccess, SetTagRange, a PAC
// sign+auth pair and a hardened malloc+free pair with loops of n calls.
// They do not depend on the workload, so they run once per process.
func probeHardware(n int, cfg cage.Config) (hardwareCosts, error) {
	var hc hardwareCosts
	const size = 1 << 20
	mem := mte.NewMemory(size, mte.ModeSync)
	if err := mem.SetTagRange(0, size, 5); err != nil {
		return hc, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		addr := uint64(i*64) & (size - 64)
		if err := mem.CheckAccess(addr, 8, 5, i&1 == 0); err != nil {
			return hc, err
		}
	}
	hc.mteCheckNS = float64(time.Since(t0).Nanoseconds()) / float64(n)

	reps := n/256 + 1
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if err := mem.SetTagRange(0, size, uint8(i)); err != nil {
			return hc, err
		}
	}
	hc.mteSetTagNSPerKB = float64(time.Since(t0).Nanoseconds()) / float64(reps) / (size / 1024)

	key := pac.KeyFromSeed(42)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		ptr := uint64(i) * 16
		signed := pac.DefaultConfig.Sign(ptr, 7, key)
		got, err := pac.DefaultConfig.Auth(signed, 7, key)
		if err != nil {
			return hc, err
		}
		sink += got
	}
	hc.pacSignAuthNS = float64(time.Since(t0).Nanoseconds()) / float64(n)

	mod, err := cage.NewToolchain(cfg).CompileSource(addSource(0))
	if err != nil {
		return hc, err
	}
	inst, err := cage.NewRuntime(cfg).Instantiate(mod)
	if err != nil {
		return hc, err
	}
	defer inst.Close()
	a := inst.Allocator()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		p, err := a.Malloc(64 + uint64(i&7)*16)
		if err != nil {
			return hc, err
		}
		if err := a.Free(p); err != nil {
			return hc, err
		}
	}
	hc.allocMallocFreeNS = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return hc, nil
}

// allocCalls reads the hardened allocator's malloc+free tally of a
// checked-out instance.
func allocCalls(inst *cage.Instance) uint64 {
	a := inst.Allocator()
	if a == nil {
		return 0
	}
	return a.Allocs + a.Frees
}
