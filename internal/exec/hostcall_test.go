package exec_test

import (
	"context"
	"testing"

	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/minicc"
)

// TestHostCallZeroAlloc is TestGuestCallZeroAlloc's twin for the other
// boundary: a guest loop of malloc + free through the hardened
// allocator's typed host functions — two crossings per iteration, one
// of them returning a value — allocates nothing in steady state. The
// HostContext and the typed adapters' result slice are per-instance
// storage; before, every malloc cost two Go allocations and every free
// one.
func TestHostCallZeroAlloc(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("race detector instruments allocations; the gate runs in the non-race suite")
	}
	file, err := minicc.Parse(`
extern char* malloc(long n);
extern void free(char* p);
long churn(long n) {
    long live = 0;
    for (long i = 0; i < n; i++) {
        char* p = malloc(64);
        if (p) { live++; }
        free(p);
    }
    return live;
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minicc.Analyze(file, minicc.Layout64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := codegen.Compile(prog, codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	host := &alloc.Host{}
	inst, err := exec.NewInstance(m, exec.Config{
		Features: core.CageAll(), HostModules: alloc.HostModules(), HostData: host, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	heapBase, ok := inst.GlobalValue("__heap_base")
	if !ok {
		t.Fatal("module lacks __heap_base")
	}
	if host.A, err = alloc.New(inst, heapBase); err != nil {
		t.Fatal(err)
	}
	args, res := []uint64{64}, make([]uint64, 1)
	var callErr error
	avg := testing.AllocsPerRun(100, func() {
		out, err := inst.InvokeWith(context.Background(), "churn", args, exec.CallOptions{Results: res})
		if err != nil {
			callErr = err
		} else if out.Values[0] != 64 {
			t.Errorf("churn(64) = %d, want 64", out.Values[0])
		}
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if avg != 0 {
		t.Errorf("64 malloc + free crossings allocate %.1f objects per invocation, want 0", avg)
	}
}
