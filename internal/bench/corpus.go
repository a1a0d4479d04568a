package bench

import (
	"fmt"
	"io"

	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/polybench"
	"cage/internal/profile"
	"cage/internal/wasm"
)

// Corpus recorder: runs the polybench kernels with the hot-sequence
// recorder armed and merges what they executed into the profile the
// runtime embeds as its default fusion input
// (internal/profile/corpus/polybench.json). The recording is a function
// of the source tree alone, so CI regenerates the file and compares it
// byte for byte.

// dispatchConfigs are the two poles of the configuration space the
// corpus is recorded under: the wasm32 guard-page baseline and the full
// Cage stack.
var dispatchConfigs = []struct {
	compile codegen.Options
	feats   core.Features
}{
	{codegen.Options{Wasm64: false}, core.Features{}},                                    // guard32
	{codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}, core.CageAll()}, // full-cage
}

// dispatchKernels are the loop-and-memory-bound kernels where dispatch
// overhead dominates.
var dispatchKernels = []string{"gemm", "jacobi-1d", "atax"}

// newDispatchInstance mirrors polybench.Instantiate with a profile
// recorder attached.
func newDispatchInstance(m *wasm.Module, feats core.Features, rec *profile.Recorder) (*exec.Instance, error) {
	host := &alloc.Host{}
	inst, err := exec.NewInstance(m, exec.Config{
		Features: feats, HostModules: polybench.HostModules(), HostData: host,
		Seed: 1234, Profile: rec,
	})
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

// recordKernelProfile runs the kernel once at the test size with the
// hot-sequence recorder armed and returns the resulting profile.
func recordKernelProfile(m *wasm.Module, feats core.Features, n int) (*profile.Profile, error) {
	r := profile.NewRecorder()
	inst, err := newDispatchInstance(m, feats, r)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	if _, err := inst.Invoke("run", uint64(n)); err != nil {
		return nil, err
	}
	return r.Profile(), nil
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
