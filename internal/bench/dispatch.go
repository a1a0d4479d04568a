package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
	"cage/internal/profile"
	"cage/internal/vmem"
	"cage/internal/wasm"
)

// Dispatch benchmark: prices the two dispatch tiers against each other
// — the lowered flat-dispatch stream and the profile-guided
// superinstruction tier (internal/fuse) — per kernel and per
// configuration. The profile driving the fusion is recorded in-run from
// the same kernel, so each record is self-contained: what you see is
// what the profile-guided tier earns on exactly the sequences the
// kernel executes. On guard-capable builds
// (cageguard tag, Linux) the guard32 rows also use the vmem guard
// backend, which removes the explicit bounds check from every access.

// DispatchKernelRecord is one kernel × config tier comparison.
type DispatchKernelRecord struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	N      int    `json:"n"`
	// FusedOps counts superinstructions in the fused program — how much
	// of the stream the recorded profile collapsed.
	FusedOps int `json:"fused_ops"`
	// ProfileID identifies the recorded profile the fusion ran under.
	ProfileID string `json:"profile_id"`
	// Per-tier wall time for one run(n) invocation.
	UnfusedNs int64 `json:"unfused_ns_per_op"`
	FusedNs   int64 `json:"fused_ns_per_op"`
	// Derived speedup (unfused/fused).
	FusedVsUnfused float64 `json:"fused_speedup_vs_unfused"`
}

// DispatchRecord is the cage-bench JSON "dispatch" record.
type DispatchRecord struct {
	// GuardBackend reports whether the guard-region memory backend was
	// active (cageguard build on a supported platform): it changes what
	// the guard32 rows measure.
	GuardBackend bool                   `json:"guard_backend"`
	Kernels      []DispatchKernelRecord `json:"kernels"`
}

// dispatchConfigs are the two poles of the configuration space: the
// wasm32 guard-page baseline (where the guard backend and fusion both
// apply) and the full Cage stack (where fusion is the only lever).
var dispatchConfigs = []struct {
	name    string
	compile codegen.Options
	feats   core.Features
}{
	{"guard32", codegen.Options{Wasm64: false}, core.Features{}},
	{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
		core.CageAll()},
}

// dispatchKernels are the loop-and-memory-bound kernels where dispatch
// overhead dominates.
var dispatchKernels = []string{"gemm", "jacobi-1d", "atax"}

// newDispatchInstance mirrors polybench.Instantiate with a pre-lowered
// program and/or profile recorder attached.
func newDispatchInstance(m *wasm.Module, feats core.Features, prog *ir.Program, rec *profile.Recorder) (*exec.Instance, error) {
	host := &alloc.Host{}
	cfg := exec.Config{
		Features: feats, HostModules: polybench.HostModules(), HostData: host,
		Seed: 1234, Profile: rec,
	}
	if prog != nil {
		cfg.Program = prog
	}
	inst, err := exec.NewInstance(m, cfg)
	if err != nil {
		return nil, err
	}
	heapBase, ok := inst.GlobalValue("__heap_base")
	if !ok {
		inst.Close()
		return nil, fmt.Errorf("bench: module lacks __heap_base")
	}
	host.A, err = alloc.New(inst, heapBase)
	if err != nil {
		inst.Close()
		return nil, err
	}
	return inst, nil
}

// timeInvoke measures the best of iters invocations of run(n) —
// best-of defends the record against scheduler noise.
func timeInvoke(invoke func() error, iters int) (int64, error) {
	best := int64(0)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := invoke(); err != nil {
			return 0, err
		}
		ns := time.Since(t0).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// MeasureDispatch runs the tier comparison for every dispatch kernel
// under every dispatch config.
func MeasureDispatch(quick bool) (*DispatchRecord, error) {
	rec := &DispatchRecord{GuardBackend: vmem.Supported()}
	iters := 3
	if quick {
		iters = 2
	}
	for _, name := range dispatchKernels {
		k, err := polybench.ByName(name)
		if err != nil {
			return nil, err
		}
		n := k.BenchN
		if quick {
			n = k.TestN
		}
		for _, cfg := range dispatchConfigs {
			m, err := polybench.Build(k, cfg.compile)
			if err != nil {
				return nil, err
			}

			prof, err := recordKernelProfile(m, cfg.feats, k.TestN)
			if err != nil {
				return nil, err
			}

			row := DispatchKernelRecord{
				Kernel: name, Config: cfg.name, N: n, ProfileID: prof.ID(),
			}

			// Unfused lowered tier.
			plain, err := newDispatchInstance(m, cfg.feats, nil, nil)
			if err != nil {
				return nil, err
			}
			row.UnfusedNs, err = timeInvoke(func() error {
				_, err := plain.Invoke("run", uint64(n))
				return err
			}, iters)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s unfused: %w", name, cfg.name, err)
			}
			plain.Close()

			// Fused tier, driven by the recorded profile.
			prog, err := exec.LowerModule(m, exec.Config{Features: cfg.feats})
			if err != nil {
				return nil, err
			}
			fusedProg := fuse.Fuse(prog, prof)
			for _, f := range fusedProg.Funcs {
				for _, in := range f.Code {
					if in.Op.IsFused() {
						row.FusedOps++
					}
				}
			}
			fused, err := newDispatchInstance(m, cfg.feats, fusedProg, nil)
			if err != nil {
				return nil, err
			}
			row.FusedNs, err = timeInvoke(func() error {
				_, err := fused.Invoke("run", uint64(n))
				return err
			}, iters)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s fused: %w", name, cfg.name, err)
			}
			fused.Close()

			if row.FusedNs > 0 {
				row.FusedVsUnfused = float64(row.UnfusedNs) / float64(row.FusedNs)
			}
			rec.Kernels = append(rec.Kernels, row)
		}
	}
	return rec, nil
}

// recordKernelProfile runs the kernel once at the test size with the
// hot-sequence recorder armed and returns the resulting profile.
func recordKernelProfile(m *wasm.Module, feats core.Features, n int) (*profile.Profile, error) {
	r := profile.NewRecorder()
	inst, err := newDispatchInstance(m, feats, nil, r)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	if _, err := inst.Invoke("run", uint64(n)); err != nil {
		return nil, err
	}
	return r.Profile(), nil
}

// WriteDispatchJSON emits a document carrying only the dispatch record
// — the fast path for regenerating BENCH_dispatch.json.
func WriteDispatchJSON(w io.Writer, quick bool) error {
	rec, err := MeasureDispatch(quick)
	if err != nil {
		return err
	}
	rep := JSONReport{Schema: JSONSchema, Quick: quick, Dispatch: rec}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RecordCorpusProfile records the hot-sequence corpus the runtime
// embeds as its default fusion profile (internal/profile/corpus): every
// dispatch kernel at test size, under both dispatch configs, merged.
// cage-bench -record-profile writes it to stdout; the output is checked
// in as corpus/polybench.json.
func RecordCorpusProfile(quick bool) (*profile.Profile, error) {
	kernels := dispatchKernels
	if !quick {
		// The full corpus sweeps every kernel, so the embedded default
		// covers sequence shapes beyond the dispatch trio.
		kernels = nil
		for _, k := range polybench.Kernels() {
			kernels = append(kernels, k.Name)
		}
	}
	merged := &profile.Profile{}
	for _, name := range kernels {
		k, err := polybench.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, cfg := range dispatchConfigs {
			m, err := polybench.Build(k, cfg.compile)
			if err != nil {
				return nil, err
			}
			prof, err := recordKernelProfile(m, cfg.feats, k.TestN)
			if err != nil {
				return nil, err
			}
			merged.Merge(prof)
		}
	}
	return merged, nil
}

// WriteProfileJSON records the corpus profile and writes it to w in the
// profile's own JSON format (not a JSONReport document: the output is
// the checked-in corpus file).
func WriteProfileJSON(w io.Writer, quick bool) error {
	prof, err := RecordCorpusProfile(quick)
	if err != nil {
		return err
	}
	return prof.WriteJSON(w)
}
