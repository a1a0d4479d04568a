package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // measured time per workload, split over the rounds
	rounds  int
	// blocks, when > 0, replaces the time budget: every round runs
	// exactly this many blocks (the smoke test and fixed-count runs).
	blocks int
	// Set-up is repeated because its time is a metric: at least
	// setupRepeats times, and on (up to maxSetupRepeats) while the gated
	// steps have cost less than setupBudget, so that every step meets a
	// quiet spell of the host in some repeat.
	setupRepeats int
	setupBudget  time.Duration
	probeIters   int // loop length of the direct hardware probes
	probeReps    int // times each source goes through the toolchain and instance probes
	sizes        sizes
	outDir       string
	logf         func(format string, args ...any)
}

// roundStats is what one round of one workload measured.
type roundStats struct {
	lat [][]float64 // per class, microseconds
	// blockP50 is, per class, each block's median latency; blockOps is
	// each block's correct gated ops per second. The end-to-end timings
	// are the best of these over the run.
	blockP50   [][]float64
	blockOps   []float64
	wall       time.Duration
	attempted  int
	failed     int
	gatedOps   int
	fuel       uint64
	ev         events // summed over gated ops
	firstError error
}

// runner drives one workload.
type runner struct {
	w   *workload
	cfg *config

	// depths[0] is the workload's own surface, which the rounds drive;
	// depths[1] and [2] are the traced pass's replay engines
	// (Engine.CallWith, WithInstanceContext).
	depths [3]target
	// setupSteps[k] holds step k's time in every set-up repeat.
	setupSteps [][]float64
	rounds     []roundStats

	layers map[string]float64 // per-layer metrics, trace mode only
}

// newTarget builds the depth-0 target of the workload: the embedder
// surface for tiny-call, the daemon over loopback for everything else.
func (rn *runner) newTarget(rec *recorder) (target, error) {
	if rn.w.inproc {
		return newCallTarget(rn.w.preset, rec)
	}
	return newHTTPTarget(rn.w.preset, rn.w.clients, rec)
}

// prepare registers the workload's modules on t and warms it: the first
// op of every class, twice, checked like any other op. It calls lap after
// every step, saying whether the step belongs to a gated class: what only
// the kernels drawn by seed need differs from seed to seed, and is no more
// part of setup_s than their ops are of the other metrics.
func (rn *runner) prepare(t target, lap func(gated bool)) error {
	ops := rn.w.block(rn.w.rng(rn.cfg.seed, -1, 0))
	gatedMod := make(map[int]bool)
	for i := range ops {
		if rn.w.classes[ops[i].class].gated && ops[i].src == "" {
			gatedMod[ops[i].mod] = true
		}
	}
	for i, src := range rn.w.sources {
		if err := t.load(src, -1-i); err != nil {
			return fmt.Errorf("%s: register module %d: %w", rn.w.name, i, err)
		}
		lap(gatedMod[i])
	}
	// Classes warm up in their own order, not the block's shuffled one,
	// so that every seed sets up alike.
	for c := range rn.w.classes {
		i := slices.IndexFunc(ops, func(o op) bool { return o.class == c })
		for rep := 0; rep < 2; rep++ {
			var r reply
			t.do(&ops[i], -1, opSpans{}, &r)
			r.decode()
			if err := ops[i].verify(&r); err != nil {
				return fmt.Errorf("%s: warm-up: %w", rn.w.name, err)
			}
			lap(rn.w.classes[c].gated)
		}
	}
	return nil
}

// setup builds and warms a target and returns how long each gated step
// took, in seconds: construction, every module's registration, every
// warm-up op. The steps and their order are the same on every call.
func (rn *runner) setup(build func() (target, error)) (target, []float64, error) {
	var steps []float64
	last := time.Now()
	lap := func(gated bool) {
		now := time.Now()
		if gated {
			steps = append(steps, now.Sub(last).Seconds())
		}
		last = now
	}
	t, err := build()
	if err != nil {
		return nil, nil, err
	}
	lap(true)
	if err := rn.prepare(t, lap); err != nil {
		t.close()
		return nil, nil, err
	}
	return t, steps, nil
}

const maxSetupRepeats = 100

// setupPrimary sets the workload up repeatedly, keeps the last target
// for the rounds and records every repeat's step times.
func (rn *runner) setupPrimary() error {
	var spent float64
	for i := 0; i < rn.cfg.setupRepeats || (spent < rn.cfg.setupBudget.Seconds() && i < maxSetupRepeats); i++ {
		rn.closeDepths()
		t, steps, err := rn.setup(func() (target, error) { return rn.newTarget(nil) })
		if err != nil {
			return err
		}
		rn.depths[0] = t
		if rn.setupSteps == nil {
			rn.setupSteps = make([][]float64, len(steps))
		}
		for k, d := range steps {
			rn.setupSteps[k] = append(rn.setupSteps[k], d)
			spent += d
		}
	}
	return nil
}

// runBlock drives ops against t with the workload's client count, each
// client closed-loop over its share, and returns the wall time of the
// block. Replies are decoded only after the clock stops. parents, when
// non-nil, gives the spans op i hangs below (the traced pass); base is the
// request id of the block's first op. With quiesce (one client only) the
// heap is collected before every op, off the clock.
func runBlock(t target, ops []op, clients int, quiesce bool, base int, parents func(i int) opSpans, replies []reply) time.Duration {
	var paused time.Duration
	client := func(c int) {
		for i := c; i < len(ops); i += clients {
			if quiesce {
				p0 := time.Now()
				runtime.GC()
				paused += time.Since(p0)
			}
			var up opSpans
			if parents != nil {
				up = parents(i)
			}
			t.do(&ops[i], base+i, up, &replies[i])
		}
	}
	start := time.Now()
	if clients == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c)
			}(c)
		}
		wg.Wait()
	}
	wall := time.Since(start) - paused
	for i := range replies {
		replies[i].decode()
	}
	return wall
}

// account folds one block's replies into the round.
func (rs *roundStats) account(w *workload, ops []op, replies []reply, wall time.Duration) {
	rs.wall += wall
	from := make([]int, len(rs.lat)) // where this block's samples start
	for c := range rs.lat {
		from[c] = len(rs.lat[c])
	}
	gatedOK, gatedWall := 0, wall
	for i := range ops {
		o, r := &ops[i], &replies[i]
		rs.attempted++
		err := o.verify(r)
		if err != nil {
			rs.failed++
			if rs.firstError == nil {
				rs.firstError = fmt.Errorf("%s op %d: %w", w.name, i, err)
			}
		}
		if !w.classes[o.class].gated {
			gatedWall -= r.lat
			if err == nil {
				rs.lat[o.class] = append(rs.lat[o.class], float64(r.lat.Nanoseconds())/1e3)
			}
			continue
		}
		rs.gatedOps++
		if err != nil {
			continue
		}
		gatedOK++
		rs.lat[o.class] = append(rs.lat[o.class], float64(r.lat.Nanoseconds())/1e3)
		rs.fuel += r.fuel
		rs.ev.Merge(&r.ev)
	}
	for c := range rs.lat {
		if block := rs.lat[c][from[c]:]; len(block) > 0 {
			rs.blockP50[c] = append(rs.blockP50[c], median(block))
		}
	}
	if gatedOK > 0 && gatedWall > 0 {
		rs.blockOps = append(rs.blockOps, float64(gatedOK)/gatedWall.Seconds())
	}
}

// runRound runs whole blocks until budget is used (or cfg.blocks of them).
func (rn *runner) runRound(round int, budget time.Duration) (roundStats, error) {
	rs := roundStats{lat: make([][]float64, len(rn.w.classes)), blockP50: make([][]float64, len(rn.w.classes))}
	runtime.GC() // every round starts from a collected heap
	for b := 0; ; b++ {
		if rn.cfg.blocks > 0 {
			if b >= rn.cfg.blocks {
				break
			}
		} else if b > 0 && rs.wall >= budget {
			break
		}
		if rn.w.recycle && (b > 0 || round > 0) {
			rn.closeDepths()
			if err := rn.buildDepth(0, nil); err != nil {
				return rs, err
			}
		}
		ops := rn.w.block(rn.w.rng(rn.cfg.seed, round, b))
		replies := make([]reply, len(ops))
		wall := runBlock(rn.depths[0], ops, rn.w.clients, rn.w.quiesce, 0, nil, replies)
		rs.account(rn.w, ops, replies, wall)
	}
	return rs, nil
}

// ---- statistics ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowest and highest are 0 on no samples, like median.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

// classGeomean is how every multi-class timing is combined: the
// geometric mean, over the gated (or ungated) classes that have samples,
// of a per-class statistic. The plain median of a multi-modal mix jumps
// between modes from run to run; this does not. A class without samples
// reports 0 and is left out.
func classGeomean(w *workload, gated bool, perClass func(c int) float64) float64 {
	var logSum float64
	var n int
	for c := range w.classes {
		if w.classes[c].gated != gated {
			continue
		}
		if m := perClass(c); m > 0 {
			logSum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// latP50 is the round's latency: per class the median over its ops.
func (rs *roundStats) latP50(w *workload) float64 {
	return classGeomean(w, true, func(c int) float64 { return median(rs.lat[c]) })
}

// endToEnd reduces the measured rounds to the end-to-end metrics. The
// host only ever adds time, in bursts that can outlast a round, so every
// timing is that of its least disturbed sample: the lowest block median
// per class, the fastest block, the quickest repeat of each set-up step.
func (rn *runner) endToEnd() (metrics map[string]float64, attempted, failed int) {
	blockP50 := make([][]float64, len(rn.w.classes))
	var blockOps []float64
	var fuel uint64
	var ev events
	var gatedOps int
	for i := range rn.rounds {
		rs := &rn.rounds[i]
		for c := range blockP50 {
			blockP50[c] = append(blockP50[c], rs.blockP50[c]...)
		}
		blockOps = append(blockOps, rs.blockOps...)
		fuel += rs.fuel
		ev.Merge(&rs.ev)
		gatedOps += rs.gatedOps
		attempted += rs.attempted
		failed += rs.failed
	}
	var setup float64
	for _, step := range rn.setupSteps {
		setup += lowest(step)
	}
	metrics = map[string]float64{
		"setup_s":    setup,
		"lat_p50_us": classGeomean(rn.w, true, func(c int) float64 { return lowest(blockP50[c]) }),
		"ops_per_s":  highest(blockOps),
	}
	if gatedOps > 0 {
		metrics["sim_us_per_op"] = simMicrosX3(&ev, gatedOps)
		metrics["fuel_per_op"] = float64(fuel) / float64(gatedOps)
	}
	return metrics, attempted, failed
}
