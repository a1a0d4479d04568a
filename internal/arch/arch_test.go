package arch

import (
	"math"
	"testing"

	"cage/internal/mte"
)

func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestTable1ThroughputShape(t *testing.T) {
	// Spot-check the microbenchmark simulator against paper Table 1.
	x3 := NewCortexX3()
	a715 := NewCortexA715()
	a510 := NewCortexA510()
	const n = 100000

	if tp := x3.MeasureThroughput(IRG, n); !near(tp, 1.34, 0.05) {
		t.Errorf("X3 irg throughput = %.2f, want ~1.34", tp)
	}
	if tp := a715.MeasureThroughput(ADDG, n); !near(tp, 3.81, 0.05) {
		t.Errorf("A715 addg throughput = %.2f, want ~3.81", tp)
	}
	if tp := a510.MeasureThroughput(PACDA, n); !near(tp, 0.20, 0.05) {
		t.Errorf("A510 pacda throughput = %.2f, want ~0.20", tp)
	}
	// Throughput can never exceed the front-end issue width.
	for _, c := range Cores() {
		for _, cl := range append(append([]InstClass{}, MTEInstClasses...), PACInstClasses...) {
			if tp := c.MeasureThroughput(cl, n); tp > c.IssueWidth+1e-9 {
				t.Errorf("%s %v throughput %.2f exceeds issue width %.1f",
					c.Name, cl, tp, c.IssueWidth)
			}
		}
	}
}

func TestTable1LatencyShape(t *testing.T) {
	x3 := NewCortexX3()
	a510 := NewCortexA510()
	const n = 10000
	// PAC sign latency is ~5 cycles everywhere.
	if lat := x3.MeasureLatency(PACDA, n); !near(lat, 4.97, 0.05) {
		t.Errorf("X3 pacda latency = %.2f, want ~4.97", lat)
	}
	// A510 authentication is slower (~8 cycles) than signing (~5).
	sign := a510.MeasureLatency(PACDA, n)
	auth := a510.MeasureLatency(AUTDA, n)
	if auth <= sign {
		t.Errorf("A510: autda latency (%.2f) must exceed pacda latency (%.2f)", auth, sign)
	}
}

func TestMeasureAllCoversTable1Rows(t *testing.T) {
	rows := NewCortexX3().MeasureAll(1000)
	if len(rows) != len(MTEInstClasses)+len(PACInstClasses) {
		t.Fatalf("MeasureAll returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("%v: non-positive throughput", r.Class)
		}
		if r.Class.HasLatencyRow() && r.Latency <= 0 {
			t.Errorf("%v: missing latency", r.Class)
		}
		if !r.Class.HasLatencyRow() && r.Latency != 0 {
			t.Errorf("%v: unexpected latency row", r.Class)
		}
	}
}

func TestFig4MemsetShape(t *testing.T) {
	// Paper Fig. 4: 128 MiB memset; sync MTE costs 19.1/14.4/29.9 %,
	// async 2.6/3.3/11.3 % on X3/A715/A510. Check ordering and rough
	// magnitudes.
	const size = 128 << 20
	for _, c := range Cores() {
		off := c.MemsetCycles(size, mte.ModeDisabled)
		async := c.MemsetCycles(size, mte.ModeAsync)
		sync := c.MemsetCycles(size, mte.ModeSync)
		if !(off < async && async < sync) {
			t.Errorf("%s: want none < async < sync, got %.0f / %.0f / %.0f",
				c.Name, off, async, sync)
		}
		syncOverhead := (sync - off) / off
		if syncOverhead < 0.10 || syncOverhead > 0.40 {
			t.Errorf("%s: sync overhead %.1f%%, want 10–40%%", c.Name, 100*syncOverhead)
		}
		asyncOverhead := (async - off) / off
		if asyncOverhead < 0.005 || asyncOverhead > 0.15 {
			t.Errorf("%s: async overhead %.1f%%, want 0.5–15%%", c.Name, 100*asyncOverhead)
		}
	}
	// Absolute runtime sanity: X3 disabled ≈ 30.2 ms.
	x3 := NewCortexX3()
	if ms := x3.Millis(x3.MemsetCycles(size, mte.ModeDisabled)); !near(ms, 30.2, 0.05) {
		t.Errorf("X3 memset = %.1f ms, want ~30.2", ms)
	}
}

func TestFig16InitShape(t *testing.T) {
	// Paper §7.4: stzg, stz2g, and stgp are at least as fast as a raw
	// memset (they skip the tag-check-before-access), while the
	// tag-then-memset combinations pay for two passes.
	const size = 128 << 20
	for _, c := range Cores() {
		base := c.InitCycles(size, InitMemset)
		for _, v := range []InitVariant{InitSTZG, InitST2ZG, InitSTGP} {
			if got := c.InitCycles(size, v); got > base*1.01 {
				t.Errorf("%s: %v (%.0f cycles) slower than memset (%.0f)",
					c.Name, v, got, base)
			}
		}
		for _, v := range []InitVariant{InitSTGMemset, InitST2GMemset} {
			got := c.InitCycles(size, v)
			if got < base*1.05 {
				t.Errorf("%s: %v should cost clearly more than memset", c.Name, v)
			}
		}
	}
}

func TestInitVariantTable4Columns(t *testing.T) {
	// Reproduce the Table 4 attribute matrix.
	type row struct {
		v       InitVariant
		zero    bool
		memsets bool
	}
	rows := []row{
		{InitMemset, true, true},
		{InitSTG, false, false},
		{InitST2G, false, false},
		{InitSTGP, true, false},
		{InitSTZG, true, false},
		{InitST2ZG, true, false},
		{InitSTGMemset, true, true},
		{InitST2GMemset, true, true},
	}
	for _, r := range rows {
		if r.v.SetsZero() != r.zero {
			t.Errorf("%v.SetsZero() = %v, want %v", r.v, r.v.SetsZero(), r.zero)
		}
		if r.v.UsesMemset() != r.memsets {
			t.Errorf("%v.UsesMemset() = %v, want %v", r.v, r.v.UsesMemset(), r.memsets)
		}
	}
}

func TestCounterPricing(t *testing.T) {
	var ctr Counter
	ctr.Add(EvLoad, 100)
	ctr.Add(EvBoundsCheck, 100)
	x3 := NewCortexX3()
	a510 := NewCortexA510()
	// In-order core pays far more for bounds checks relative to the
	// load itself (speculation asymmetry, paper §3).
	relX3 := x3.Wasm[EvBoundsCheck] / x3.Wasm[EvLoad]
	relA510 := a510.Wasm[EvBoundsCheck] / a510.Wasm[EvLoad]
	if relA510 <= relX3 {
		t.Errorf("bounds-check relative cost: A510 %.2f <= X3 %.2f", relA510, relX3)
	}
	if got := ctr.Cycles(x3); got <= 0 {
		t.Errorf("Cycles = %f", got)
	}
	if ctr.Total() != 200 {
		t.Errorf("Total = %d", ctr.Total())
	}
}

func TestCounterMergeReset(t *testing.T) {
	var a, b Counter
	a.Add(EvALU, 5)
	b.Add(EvALU, 7)
	b.Add(EvCall, 1)
	a.Merge(&b)
	if a.Get(EvALU) != 12 || a.Get(EvCall) != 1 {
		t.Errorf("merge: alu=%d call=%d", a.Get(EvALU), a.Get(EvCall))
	}
	a.Reset()
	if a.Total() != 0 {
		t.Error("reset did not clear counts")
	}
}

func TestMillisConversion(t *testing.T) {
	c := NewCortexX3() // 2.91 GHz
	if ms := c.Millis(2.91e9); !near(ms, 1000, 1e-9) {
		t.Errorf("Millis(2.91e9) = %f, want 1000", ms)
	}
}
