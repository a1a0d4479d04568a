package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cage/internal/arch"
	"cage/internal/exec"
	"cage/internal/polybench"
)

// Machine-readable benchmark output (cage-bench -json): one record per
// (kernel, Table 3 variant) with the wall time, the timing-model event
// counts, and the fuel the run consumed, so BENCH_*.json trajectory
// files can be produced by CI instead of by hand.

// JSONSchema identifies the record layout; bump it when fields change
// incompatibly.
//
// v2 (frame-machine PR): adds the call_overhead record pricing
// guest→guest calls. Every cage-bench/v1 field is carried over
// unchanged — v1 consumers that tolerate unknown fields (the documented
// v1 contract) can read v2 documents as-is; the schema string is bumped
// because trajectory tooling keys comparisons on it and per-call
// numbers measured before the frame machine are not comparable after
// it.
const JSONSchema = "cage-bench/v2"

// KernelRecord is one kernel × variant measurement.
type KernelRecord struct {
	Kernel   string  `json:"kernel"`
	Variant  string  `json:"variant"`
	N        int     `json:"n"`
	Checksum float64 `json:"checksum"`
	// NsPerOp is the wall time of the single invocation (instantiation
	// excluded), comparable across runs of the same machine only.
	NsPerOp int64 `json:"ns_per_op"`
	// Fuel is the timing-model event total the invocation consumed —
	// the same unit cage.WithFuel meters, deterministic per (kernel,
	// variant, n).
	Fuel uint64 `json:"fuel"`
	// Events breaks Fuel down by event name (non-zero entries only).
	Events map[string]uint64 `json:"events"`
}

// JSONReport is the top-level -json document.
type JSONReport struct {
	Schema string `json:"schema"`
	Quick  bool   `json:"quick"`
	// Kernels is empty in documents produced by cage-loadgen, which
	// emits only the saturation record under the same schema.
	Kernels []KernelRecord `json:"kernels,omitempty"`
	// HostCall prices one guest→host crossing (typed adapter vs raw
	// slot); added with the public host-module API, omitted never —
	// consumers of cage-bench/v1 tolerate new fields.
	HostCall *HostCallRecord `json:"host_call,omitempty"`
	// CallOverhead prices one guest→guest call (recursive fib and
	// mutual-recursion kernels); added with cage-bench/v2.
	CallOverhead *CallOverheadRecord `json:"call_overhead,omitempty"`
	// Saturation is the multi-tenant service benchmark (p50/p99 latency
	// and throughput vs concurrency against a live cage-serve, per
	// sandbox preset), emitted by cage-loadgen; a compatible addition —
	// consumers tolerate unknown fields.
	Saturation *SaturationRecord `json:"saturation,omitempty"`
	// Snapshot prices warm checkouts (snapshot restore, copy and COW)
	// against cold starts across heap sizes; a compatible addition.
	Snapshot *SnapshotRecord `json:"snapshot,omitempty"`
	// Mitigation prices the Spectre-hardened preset against full — the
	// per-kernel fuel/cycle tax plus the adversary verdict table; a
	// compatible addition emitted by cage-bench -mitigation.
	Mitigation *MitigationRecord `json:"mitigation,omitempty"`
	// Dispatch prices the two dispatch tiers (lowered, profile-guided
	// fused) per kernel and config; a compatible addition emitted by
	// cage-bench -dispatch.
	Dispatch *DispatchRecord `json:"dispatch,omitempty"`
}

// runKernelRecord instantiates kernel k under variant v and measures
// one invocation of run(n).
func runKernelRecord(k polybench.Kernel, v Variant, n int) (KernelRecord, error) {
	rec := KernelRecord{Kernel: k.Name, Variant: v.Name, N: n}
	m, err := polybench.Build(k, v.Compile)
	if err != nil {
		return rec, err
	}
	var ctr arch.Counter
	inst, _, err := polybench.Instantiate(m, v.Features, &ctr)
	if err != nil {
		return rec, err
	}
	defer inst.Close()

	before := ctr.Snapshot()
	t0 := time.Now()
	res, err := inst.Invoke("run", uint64(n))
	elapsed := time.Since(t0)
	if err != nil {
		return rec, fmt.Errorf("bench: %s/%s: %w", k.Name, v.Name, err)
	}
	delta := ctr.DeltaSince(before)

	rec.Checksum = exec.F64Val(res[0])
	rec.NsPerOp = elapsed.Nanoseconds()
	rec.Fuel = delta.Total()
	rec.Events = delta.EventCounts()
	return rec, nil
}

// WriteJSON runs every PolyBench kernel under every Table 3 variant and
// writes the JSONReport document to w. quick selects the test problem
// sizes (the CI smoke configuration); otherwise the Fig. 14 sizes run.
func WriteJSON(w io.Writer, quick bool) error {
	rep := JSONReport{Schema: JSONSchema, Quick: quick}
	for _, k := range polybench.Kernels() {
		n := k.BenchN
		if quick {
			n = k.TestN
		}
		for _, v := range Table3Variants() {
			rec, err := runKernelRecord(k, v, n)
			if err != nil {
				return err
			}
			rep.Kernels = append(rep.Kernels, rec)
		}
	}
	hostCall, err := MeasureHostCall(quick)
	if err != nil {
		return err
	}
	rep.HostCall = hostCall
	callOverhead, err := MeasureCallOverhead(quick)
	if err != nil {
		return err
	}
	rep.CallOverhead = callOverhead
	snapshot, err := MeasureSnapshot(quick)
	if err != nil {
		return err
	}
	rep.Snapshot = snapshot
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteSnapshotJSON emits a document carrying only the snapshot
// record — the fast path for regenerating BENCH_snapshot.json without
// the full kernel sweep.
func WriteSnapshotJSON(w io.Writer, quick bool) error {
	rec, err := MeasureSnapshot(quick)
	if err != nil {
		return err
	}
	rep := JSONReport{Schema: JSONSchema, Quick: quick, Snapshot: rec}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
