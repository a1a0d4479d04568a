package arch

// Lowered-code cost model regenerating paper Fig. 14 and Fig. 15.
//
// The wasm engine reports one event per lowered operation it executes
// (an ALU op, a load with or without a bounds check, a tag-store granule,
// a PAC authentication, ...). A Counter accumulates event counts; the
// per-core WasmCosts table converts counts into estimated cycles of the
// natively-lowered code. Out-of-order cores amortize bounds-check
// compare+branch pairs almost entirely through speculation, while the
// in-order A510 pays for them serially — the table encodes exactly that
// asymmetry, which produces the paper's 6–8 % vs 52 % wasm64 overheads.

// Event enumerates the cost-relevant operations the engine reports.
type Event int

const (
	// EvConst covers constant materialization.
	EvConst Event = iota
	// EvLocal covers local.get/local.set/local.tee (mostly registers).
	EvLocal
	// EvGlobal covers global.get/global.set.
	EvGlobal
	// EvALU covers integer add/sub/bitwise/shift/rot.
	EvALU
	// EvCmp covers integer and float comparisons.
	EvCmp
	// EvMul covers integer multiply.
	EvMul
	// EvDivInt covers integer divide/remainder.
	EvDivInt
	// EvConv covers conversions/extensions/truncations/reinterprets.
	EvConv
	// EvFAdd covers float add/sub/neg/abs/min/max/copysign.
	EvFAdd
	// EvFMul covers float multiply.
	EvFMul
	// EvFDiv covers float divide and sqrt.
	EvFDiv
	// EvSelect covers select.
	EvSelect
	// EvBranch covers br/br_if/if/loop back-edges (predicted branches).
	EvBranch
	// EvBrTable covers br_table dispatch.
	EvBrTable
	// EvCall covers direct calls (prologue+epilogue amortized).
	EvCall
	// EvCallIndirect covers the full dynamic-dispatch penalty of a
	// call_indirect: table bounds + null + signature checks, the
	// unpredictable branch, argument spills, and the optimization the
	// compiler loses by not being able to inline the callee. It is
	// calibrated against the paper's Fig. 15 static-vs-dynamic deltas.
	EvCallIndirect
	// EvReturn covers returns.
	EvReturn
	// EvLoad covers memory loads (access itself, check accounted apart).
	EvLoad
	// EvStore covers memory stores.
	EvStore
	// EvBoundsCheck covers an explicit software bounds check (wasm64).
	EvBoundsCheck
	// EvMask covers the index-masking AND of MTE sandboxing (Fig. 13).
	EvMask
	// EvTagCheckLoad covers the hardware tag check riding on a load.
	EvTagCheckLoad
	// EvTagCheckStore covers the hardware tag check riding on a store.
	EvTagCheckStore
	// EvIRG covers random-tag generation.
	EvIRG
	// EvADDG covers tag arithmetic.
	EvADDG
	// EvSTGGranule covers one tagged granule written by stg-style ops.
	EvSTGGranule
	// EvPACSign covers i64.pointer_sign lowered to pacda.
	EvPACSign
	// EvPACAuth covers i64.pointer_auth lowered to autda.
	EvPACAuth
	// EvMemGrow covers memory.grow.
	EvMemGrow
	// EvHost covers work performed inside host functions, reported
	// explicitly via HostContext.ConsumeFuel: one event approximates one
	// cycle of host-side work, so metered calls can account for time the
	// guest spends on the other side of the sandbox boundary.
	EvHost
	// EvFence covers the Swivel-style speculation barrier the hardened
	// lowering inserts before every indirect branch and return: a
	// full-pipeline serialization (isb/sb-class) that closes the
	// speculative window a poisoned predictor would otherwise exploit.
	// Out-of-order cores pay for the drained window; the in-order A510
	// barely speculates, so its barrier is nearly free — the inverse of
	// the bounds-check asymmetry above.
	EvFence
	// EvBTBFlush covers the branch-target-buffer invalidation charged at
	// each sandbox transition (host→guest entry) under the hardened
	// config, so a tenant cannot leave poisoned predictor state for the
	// code on the other side of the boundary.
	EvBTBFlush
	// NumEvents is the table size.
	NumEvents
)

var eventNames = [...]string{
	EvConst: "const", EvLocal: "local", EvGlobal: "global", EvALU: "alu",
	EvCmp: "cmp", EvMul: "mul", EvDivInt: "divint", EvConv: "conv",
	EvFAdd: "fadd", EvFMul: "fmul", EvFDiv: "fdiv", EvSelect: "select",
	EvBranch: "branch", EvBrTable: "brtable", EvCall: "call",
	EvCallIndirect: "call_indirect", EvReturn: "return", EvLoad: "load",
	EvStore: "store", EvBoundsCheck: "boundscheck", EvMask: "mask",
	EvTagCheckLoad: "tagcheck_ld", EvTagCheckStore: "tagcheck_st",
	EvIRG: "irg", EvADDG: "addg", EvSTGGranule: "stg_granule",
	EvPACSign: "pac_sign", EvPACAuth: "pac_auth", EvMemGrow: "memgrow",
	EvHost: "host", EvFence: "fence", EvBTBFlush: "btb_flush",
}

// String returns the event's short name.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "event(?)"
}

// WasmCosts maps each event to estimated cycles on one core.
type WasmCosts [NumEvents]float64

// Counter accumulates event counts during execution. It is independent
// of any core; costs are applied afterwards, so one run can be priced on
// all three cores.
type Counter struct {
	counts [NumEvents]uint64
}

// Add records n occurrences of ev. Total sums on demand instead of
// maintaining a running total here.
func (c *Counter) Add(ev Event, n uint64) { c.counts[ev] += n }

// Sub takes back n occurrences of ev recorded ahead of time: the
// executor counts a straight-line region's events from its entry, and a
// trap inside it returns what the region did not run.
func (c *Counter) Sub(ev Event, n uint64) { c.counts[ev] -= n }

// Get returns the count for ev.
func (c *Counter) Get(ev Event) uint64 { return c.counts[ev] }

// Total returns the total event count. It walks the (small, fixed)
// event table; callers on hot paths — the fuel metering of the exec
// layer compares totals at interrupt checkpoints — only run at branch
// and call boundaries, where the walk is noise.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Reset zeroes all counts.
func (c *Counter) Reset() { *c = Counter{} }

// Merge adds other's counts into c.
func (c *Counter) Merge(other *Counter) {
	for i, n := range other.counts {
		c.counts[i] += n
	}
}

// Snapshot returns a copy of the counter.
func (c *Counter) Snapshot() Counter { return *c }

// DeltaSince returns the events accumulated after prev was snapshotted,
// used to time a kernel region exclusive of setup (the PolyBench-timer
// methodology of §7.1).
func (c *Counter) DeltaSince(prev Counter) Counter {
	var d Counter
	for i := range c.counts {
		d.counts[i] = c.counts[i] - prev.counts[i]
	}
	return d
}

// EventCounts returns the non-zero event counts keyed by event name,
// the stable serialization used by machine-readable bench output.
func (c *Counter) EventCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for ev, n := range c.counts {
		if n != 0 {
			out[Event(ev).String()] = n
		}
	}
	return out
}

// Cycles prices the accumulated events on core.
func (c *Counter) Cycles(core *Core) float64 {
	var cycles float64
	for ev, n := range c.counts {
		if n != 0 {
			cycles += float64(n) * core.Wasm[ev]
		}
	}
	return cycles
}

// Millis prices the accumulated events on core in milliseconds.
func (c *Counter) Millis(core *Core) float64 {
	return core.Millis(c.Cycles(core))
}

// Cost tables. The big OoO core sustains ~6 µops/cycle with speculation;
// the A715 is slightly narrower; the dual-issue in-order A510 exposes
// branch and load latencies. Bounds checks (compare+branch) are nearly
// free under speculation but cost the in-order core a serialization
// penalty; index masking is a single fused AND; MTE tag checks run in
// parallel with the access and only tax the core marginally.
var (
	wasmCostsX3 = WasmCosts{
		EvConst: 0.05, EvLocal: 0.05, EvGlobal: 0.16, EvALU: 0.18,
		EvCmp: 0.16, EvMul: 0.33, EvDivInt: 7.0, EvConv: 0.28,
		EvFAdd: 0.25, EvFMul: 0.25, EvFDiv: 7.0, EvSelect: 0.30,
		EvBranch: 0.25, EvBrTable: 2.0, EvCall: 3.0, EvCallIndirect: 48.0,
		EvReturn: 1.0, EvLoad: 0.34, EvStore: 0.34,
		EvBoundsCheck: 0.14, EvMask: 0.016,
		EvTagCheckLoad: 0.012, EvTagCheckStore: 0.012,
		EvIRG: 0.90, EvADDG: 0.50, EvSTGGranule: 1.20,
		EvPACSign: 1.2, EvPACAuth: 1.5, EvMemGrow: 300, EvHost: 1.0,
		EvFence: 22.0, EvBTBFlush: 260,
	}
	wasmCostsA715 = WasmCosts{
		EvConst: 0.06, EvLocal: 0.06, EvGlobal: 0.20, EvALU: 0.22,
		EvCmp: 0.20, EvMul: 0.40, EvDivInt: 8.0, EvConv: 0.33,
		EvFAdd: 0.30, EvFMul: 0.30, EvFDiv: 8.0, EvSelect: 0.35,
		EvBranch: 0.30, EvBrTable: 2.5, EvCall: 3.5, EvCallIndirect: 42.0,
		EvReturn: 1.2, EvLoad: 0.40, EvStore: 0.40,
		EvBoundsCheck: 0.30, EvMask: 0.03,
		EvTagCheckLoad: 0.05, EvTagCheckStore: 0.05,
		EvIRG: 1.30, EvADDG: 0.27, EvSTGGranule: 2.00,
		EvPACSign: 1.1, EvPACAuth: 1.4, EvMemGrow: 300, EvHost: 1.1,
		EvFence: 18.0, EvBTBFlush: 220,
	}
	wasmCostsA510 = WasmCosts{
		EvConst: 0.20, EvLocal: 0.25, EvGlobal: 0.55, EvALU: 0.60,
		EvCmp: 0.55, EvMul: 1.10, EvDivInt: 12.0, EvConv: 0.90,
		EvFAdd: 1.40, EvFMul: 1.50, EvFDiv: 14.0, EvSelect: 0.80,
		EvBranch: 1.10, EvBrTable: 5.0, EvCall: 7.0, EvCallIndirect: 220.0,
		EvReturn: 2.5, EvLoad: 1.35, EvStore: 1.10,
		EvBoundsCheck: 6.00, EvMask: 0.30,
		EvTagCheckLoad: 0.25, EvTagCheckStore: 0.25,
		EvIRG: 2.00, EvADDG: 0.45, EvSTGGranule: 2.50,
		EvPACSign: 5.2, EvPACAuth: 8.2, EvMemGrow: 300, EvHost: 2.0,
		EvFence: 3.0, EvBTBFlush: 80,
	}
)
