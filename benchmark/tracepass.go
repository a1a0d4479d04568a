package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"cage"
)

// The traced pass replays the op sequence of round 0 at three depths:
//
//	depth 0  the workload's own surface (HTTP, or CallWith for tiny-call);
//	         the handler wrapper nests serve.handler below client.http
//	depth 1  Engine.CallWith on a benchmark-owned engine      → cage.call
//	depth 2  WithInstanceContext + Instance.Call on another   → engine.checkout,
//	                                                            exec.guest, engine.checkin
//
// Each depth sees every op in the same order, so its pool and caches walk
// through the same states as the daemon's. A deeper span's parent is the
// span of the same op one depth up; a layer's self time is its span minus
// its children. Toolchain, instance and hardware functions are then called
// directly, as parentless probe spans.

// heapAfterGC is the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// maxTracedOps bounds the trace: six spans an op, about 100 bytes each.
const maxTracedOps = 4096

// tracedOp remembers what the reduction needs of one op: its class and
// its replies at depth 0 and depth 2.
type tracedOp struct {
	class  int
	r0, r2 reply
}

// closeDepths retires every target.
func (rn *runner) closeDepths() {
	for d, t := range rn.depths {
		if t != nil {
			t.close()
			rn.depths[d] = nil
		}
	}
}

// buildDepth puts a fresh, warmed target that records into rec at depth d.
// tiny-call has none at depth 1: its depth 0 already is Engine.CallWith.
func (rn *runner) buildDepth(d int, rec *recorder) (err error) {
	if d == 1 && rn.w.inproc {
		return nil
	}
	rn.depths[d], _, err = rn.setup(func() (target, error) {
		switch d {
		case 0:
			return rn.newTarget(rec)
		case 1:
			return newCallTarget(rn.w.preset, rec)
		}
		return newInstTarget(rn.w.preset, rec)
	})
	return err
}

// traceDepth drives one block at depth d with the workload's client
// count, exactly as an untraced round drives it at depth 0. prev holds the
// replies of the same ops one depth up, whose spans become the parents.
//
// A workload that recycles its server has one depth alive at a time, built
// fresh for the block, so every depth starts from the heap an untraced
// block starts from: a cold start costs what the allocator and the page
// tables make of ~13 MB of new memory, and a depth that ran among two more
// engines' garbage would not be comparable.
func (rn *runner) traceDepth(d int, rec *recorder, ops []op, base int, prev []reply, delta *serverCounters) ([]reply, error) {
	r := make([]reply, len(ops))
	if d == 1 && rn.w.inproc { // no depth 1: hand depth 0's spans on
		for i := range r {
			r[i].spans = prev[i].spans
		}
		return r, nil
	}
	if rn.w.recycle {
		rn.closeDepths()
		if err := rn.buildDepth(d, rec); err != nil {
			return nil, err
		}
	}
	t := rn.depths[d]
	t.setRecorder(rec)
	before := t.counters()
	runBlock(t, ops, rn.w.clients, rn.w.quiesce, base, func(i int) opSpans {
		switch d {
		case 1: // below the handler spans the wrapper recorded
			return opSpans{
				upload: rec.childOf(prev[i].spans.upload),
				invoke: rec.childOf(prev[i].spans.invoke),
			}
		case 2:
			return prev[i].spans
		}
		return opSpans{}
	}, r)
	if delta != nil {
		*delta = delta.add(t.counters().sub(before))
	}
	return r, nil
}

// tracePass runs the reference round, the traced blocks and the probes,
// and leaves the per-layer metrics in rn.layers.
func (rn *runner) tracePass(hw hardwareCosts, env envBlock, budget time.Duration) (attempted, failed int, err error) {
	w, cfg := rn.w, rn.cfg
	rec := newRecorder()
	rn.closeDepths()
	defer rn.closeDepths()

	// What a registered module keeps alive: the live heap the warmed
	// depth-0 target adds, per module it holds.
	var retainedMB float64
	heapBefore := heapAfterGC()
	if err := rn.buildDepth(0, rec); err != nil {
		return 0, 0, err
	}
	if heapAfter := heapAfterGC(); heapAfter > heapBefore {
		retainedMB = float64(heapAfter-heapBefore) / float64(rn.depths[0].modules()) / (1 << 20)
	}
	if !w.recycle {
		for d := 1; d < 3; d++ {
			if err := rn.buildDepth(d, rec); err != nil {
				return 0, 0, err
			}
		}
	}

	// Untraced reference round on the same target, with the replay
	// engines already alive so the heap is the size it is while tracing:
	// this is the latency the layers have to explain.
	rn.depths[0].setRecorder(nil)
	ref, err := rn.runRound(1<<20, budget/4)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = ref.attempted, ref.failed
	if ref.firstError != nil {
		cfg.logf("FAIL %v", ref.firstError)
	}

	// Depth 0 replays round 0's blocks for an eighth of the budget (or
	// until the trace is large enough); the two depths below it then
	// replay the same blocks. Each depth runs its blocks back to back,
	// as a round does, not turn and turn about with the others.
	var (
		blocks [][]op
		r      [3][][]reply
		base   []int
		delta  serverCounters
		n      int
	)
	start := time.Now()
	for b := 0; ; b++ {
		if cfg.blocks > 0 {
			if b >= cfg.blocks {
				break
			}
		} else if b > 0 && (time.Since(start) >= budget/8 || n >= maxTracedOps) {
			break
		}
		blocks, base = append(blocks, w.block(w.rng(cfg.seed, 0, b))), append(base, n)
		n += len(blocks[b])
		replies, err := rn.traceDepth(0, rec, blocks[b], base[b], nil, &delta)
		if err != nil {
			return attempted, failed, err
		}
		r[0] = append(r[0], replies)
	}
	for d := 1; d < 3; d++ {
		for b := range blocks {
			replies, err := rn.traceDepth(d, rec, blocks[b], base[b], r[d-1][b], nil)
			if err != nil {
				return attempted, failed, err
			}
			r[d] = append(r[d], replies)
		}
	}

	var ops []tracedOp
	for b := range blocks {
		for i := range blocks[b] {
			for d := range r {
				if d == 1 && w.inproc {
					continue
				}
				attempted++
				if verr := blocks[b][i].verify(&r[d][b][i]); verr != nil {
					failed++
					cfg.logf("FAIL %s traced block %d op %d depth %d: %v", w.name, b, i, d, verr)
				}
			}
			ops = append(ops, tracedOp{class: blocks[b][i].class, r0: r[0][b][i], r2: r[2][b][i]})
		}
	}

	pr, err := rn.probe(rec, &ref)
	if err != nil {
		return attempted, failed, err
	}
	spans := rec.snapshot()
	rn.layers = rn.reduce(spans, ops, &ref, delta, pr, hw)
	rn.layers["engine.retained_mb_per_module"] = retainedMB

	tf := traceFile{Env: env, Workload: w.name, Spans: spans}
	for _, c := range w.classes {
		tf.Classes = append(tf.Classes, c.name)
	}
	for i := range ops {
		tf.Ops = append(tf.Ops, ops[i].class)
	}
	return attempted, failed, writeTrace(cfg.outDir, tf)
}

// probed is what the direct calls found besides their spans.
type probed struct {
	counts                  []toolchainCounts // one per probed source
	serveAllocs, callAllocs float64
}

// probe calls the toolchain and instance functions directly for every
// module source of the workload (two of the salted ones for coldstart),
// as parentless spans, and counts heap allocations per request and call.
func (rn *runner) probe(rec *recorder, ref *roundStats) (probed, error) {
	w, cfg := rn.w, rn.cfg
	var pr probed
	ccfg, err := cage.ConfigByName(w.preset)
	if err != nil {
		return pr, err
	}
	firstBlock := w.block(w.rng(cfg.seed, 0, 0))
	sources := w.sources
	if len(sources) == 0 {
		sources = []string{firstBlock[0].src, firstBlock[1].src}
	}
	for i, src := range sources {
		for rep := 0; rep < cfg.probeReps; rep++ {
			tc, err := probeToolchain(rec, -1-i, src, ccfg)
			if err != nil {
				return pr, fmt.Errorf("%s: toolchain probe: %w", w.name, err)
			}
			if rep == 0 {
				pr.counts = append(pr.counts, tc)
			}
			if err := probeInstance(rec, -1-i, src, ccfg); err != nil {
				return pr, fmt.Errorf("%s: instance probe: %w", w.name, err)
			}
		}
	}

	// Allocations are counted on the first gated op that needs no upload.
	var o *op
	for i := range firstBlock {
		if w.classes[firstBlock[i].class].gated && firstBlock[i].src == "" {
			o = &firstBlock[i]
			break
		}
	}
	if o == nil {
		return pr, nil
	}
	iters := 200
	if ref.latP50(w) > 500 {
		iters = 10
	}
	if ht, ok := rn.depths[0].(*httpTarget); ok {
		pr.serveAllocs = ht.allocsPerRequest(o, iters)
		pr.callAllocs = rn.depths[1].(*callTarget).allocsPerCall(o, iters)
	} else {
		pr.callAllocs = rn.depths[0].(*callTarget).allocsPerCall(o, iters)
	}
	return pr, nil
}

// reduce turns spans, replies and counters into the per-layer metrics.
// Timings of a layer are reduced like lat_p50_us, the geometric mean over
// gated classes of the per-class median, so that they add up to it.
func (rn *runner) reduce(spans []span, ops []tracedOp, ref *roundStats, delta serverCounters, pr probed, hw hardwareCosts) map[string]float64 {
	w := rn.w
	classOf := func(req int) int {
		if req < 0 || req >= len(ops) {
			return -1 // set-up uploads and probes
		}
		return ops[req].class
	}
	dur := byName(spans, nil, classOf)
	self := byName(spans, selfTimes(spans), classOf)
	layer := func(m map[string]map[int][]float64, name string) float64 {
		return classGeomean(w, true, func(c int) float64 { return median(m[name][c]) })
	}
	// all is the median of a span name over every class: probes, and
	// uploads, which happen at set-up except on coldstart.
	all := func(name string) float64 {
		var xs []float64
		for _, v := range dur[name] {
			xs = append(xs, v...)
		}
		return median(xs)
	}

	var (
		gated                      int
		fuel, checks, stores, pacN uint64
		allocN, fuel2              uint64
		ev                         events
		guestNS                    int64
		refAll                     []float64
	)
	tracedLat := make([][]float64, len(w.classes))
	for i := range ops {
		o := &ops[i]
		tracedLat[o.class] = append(tracedLat[o.class], float64(o.r0.lat.Nanoseconds())/1e3)
		if !w.classes[o.class].gated {
			continue
		}
		gated++
		fuel += o.r0.fuel
		checks += tagChecks(&o.r0.ev)
		stores += tagStores(&o.r0.ev)
		pacN += pacOps(&o.r0.ev)
		ev.Merge(&o.r0.ev)
		allocN += o.r2.allocCalls
		fuel2 += o.r2.fuel
		guestNS += o.r2.guest.Nanoseconds()
	}
	for c := range w.classes {
		if w.classes[c].gated {
			refAll = append(refAll, ref.lat[c]...)
		}
	}
	perOp := func(n float64) float64 { return n / math.Max(1, float64(gated)) }
	share := func(part, whole uint64) float64 { return float64(part) / math.Max(1, float64(whole)) }
	allOps := float64(len(ops))

	L := make(map[string]float64, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		L[m.Name] = 0 // a layer this workload does not cross stays 0
	}
	L["client.lat_p99_us"] = percentile(refAll, 0.99)
	L["client.heldout_lat_p50_us"] = classGeomean(w, false, func(c int) float64 { return median(ref.lat[c]) })
	if !w.inproc {
		L["client.http_self_us"] = layer(self, "client.http")
		L["serve.handler_us"] = layer(dur, "serve.handler")
		L["serve.self_us"] = layer(self, "serve.handler")
		L["serve.upload_us"] = all("serve.upload")
		L["serve.traps_share"] = share(delta.traps, delta.requests)
		L["serve.rejected_share"] = share(delta.rejected, delta.requests)
		L["serve.allocs_per_req"] = pr.serveAllocs
	}
	L["cage.call_us"] = layer(dur, "cage.call")
	L["cage.allocs_per_call"] = pr.callAllocs
	L["engine.checkout_us"] = layer(dur, "engine.checkout")
	L["engine.checkin_us"] = layer(dur, "engine.checkin")
	L["engine.spawned_per_op"] = float64(delta.spawned) / allOps
	L["engine.restores_per_op"] = float64(delta.restores) / allOps
	L["engine.idle_hit_share"] = 1 - float64(delta.spawned)/allOps
	L["engine.program_cache_hit_share"] = share(delta.progHits, delta.progHits+delta.progMisses)
	L["engine.module_cache_hit_share"] = share(delta.modHits, delta.modHits+delta.modMisses)
	L["exec.guest_us"] = layer(dur, "exec.guest")
	L["exec.ns_per_event"] = float64(guestNS) / math.Max(1, float64(fuel2))
	L["exec.events_per_op"] = perOp(float64(fuel))
	L["exec.instantiate_us"] = all("exec.instantiate")
	L["exec.snapshot_capture_us"] = all("exec.snapshot_capture")
	L["exec.restore_us"] = all("exec.restore")
	L["mte.tag_checks_per_op"] = perOp(float64(checks))
	L["mte.tag_stores_per_op"] = perOp(float64(stores))
	L["mte.check_ns"] = hw.mteCheckNS
	L["mte.settag_ns_per_kb"] = hw.mteSetTagNSPerKB
	L["pac.ops_per_op"] = perOp(float64(pacN))
	L["pac.sign_auth_ns"] = hw.pacSignAuthNS
	L["alloc.calls_per_op"] = perOp(float64(allocN))
	L["alloc.malloc_free_ns"] = hw.allocMallocFreeNS
	L["minicc.parse_analyze_us"] = all("minicc.parse_analyze")
	L["codegen.compile_us"] = all("codegen.compile")
	L["wasm.encode_us"] = all("wasm.encode")
	L["wasm.decode_validate_us"] = all("wasm.decode_validate")
	L["ir.lower_us"] = all("ir.lower")
	L["fuse.fuse_us"] = all("fuse.fuse")
	for _, tc := range pr.counts {
		n := float64(len(pr.counts))
		L["codegen.module_bytes"] += float64(tc.moduleBytes) / n
		L["ir.instrs"] += float64(tc.irInstrs) / n
		L["fuse.fused_ops"] += float64(tc.fusedOps) / n
	}
	if gated > 0 {
		L["arch.sim_cycles_x3_per_op"] = cyclesX3(&ev, gated)
		L["arch.sim_cycles_a510_per_op"] = cyclesA510(&ev, gated)
	}

	// Two questions, kept apart. Do the spans account for the latency of
	// the ops they were taken on: the self times along one op's path over
	// the traced depth-0 latency. And did tracing change the latency: the
	// traced depth-0 latency against the untraced reference round.
	traced := classGeomean(w, true, func(c int) float64 { return median(tracedLat[c]) })
	if traced > 0 {
		explained := L["client.http_self_us"] + L["serve.self_us"] +
			L["engine.checkout_us"] + L["exec.guest_us"] + L["engine.checkin_us"]
		L["trace.explained_share"] = explained / traced
	}
	p50 := ref.latP50(w)
	L["trace.ref_lat_p50_us"] = p50
	if p50 > 0 {
		L["trace.overhead_share"] = (traced - p50) / p50
	}
	return L
}

// rewind is a request body that can be sent again without allocating.
type rewind struct{ *bytes.Reader }

func (rewind) Close() error { return nil }

// nullWriter is the cheapest http.ResponseWriter: it keeps nothing.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// allocsPerRequest calls the daemon's handler directly, n times, with one
// reused request and writer, and returns heap allocations per call. What
// remains is what the serve package and the layers below it allocate.
func (t *httpTarget) allocsPerRequest(o *op, n int) float64 {
	body := rewind{bytes.NewReader(invokeBody(t.ids[o.mod], o.fn, o.args))}
	req, err := http.NewRequest(http.MethodPost, "/v1/invoke", body)
	if err != nil {
		return 0
	}
	w := &nullWriter{h: make(http.Header)}
	h := t.srv.handler()
	run := func() {
		body.Seek(0, 0)
		req.Body = body
		h.ServeHTTP(w, req)
	}
	run()
	before := mallocs()
	for i := 0; i < n; i++ {
		run()
	}
	return float64(mallocs()-before) / float64(n)
}

// allocsPerCall is the same for Engine.CallWith with a result buffer.
func (t *callTarget) allocsPerCall(o *op, n int) float64 {
	var res [1]uint64
	m := t.mods[o.mod]
	run := func() { t.eng.CallWith(background, m, o.fn, o.args, cage.CallSpec{Results: res[:0]}) }
	run()
	before := mallocs()
	for i := 0; i < n; i++ {
		run()
	}
	return float64(mallocs()-before) / float64(n)
}
