package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmoke runs every workload with tiny counts, end-to-end rounds and
// traced pass, and checks that each metric BENCHMARK.json names comes out
// for each workload it names, with no failed op.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	cfg := &config{
		seed: 7, seconds: 1, rounds: 1, blocks: 1, setupRepeats: 1, probeIters: 500, probeReps: 1,
		sizes:  sizes{burst: 2, drawn: 1, tinyBlock: 16, dirtyGroups: 1, rotateBlock: 8, coldBlock: 2, kernelN: 6},
		outDir: t.TempDir(),
		logf:   t.Logf,
	}
	results, env, err := runAll(cfg, "all", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if env.NProc == 0 || env.GoVersion == "" || env.RestoreMode == "" {
		t.Errorf("env block incomplete: %+v", env)
	}
	byName := make(map[string]result)
	for _, r := range results {
		byName[r.Workload] = r
	}
	for _, w := range bj.Workloads {
		r, ok := byName[w.Name]
		if !ok {
			t.Errorf("workload %s of BENCHMARK.json did not run", w.Name)
			continue
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, r.Attempted, r.Failed)
		}
		for _, m := range bj.EndToEnd {
			if v, ok := r.EndToEnd[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		for _, m := range bj.PerLayer {
			if _, ok := r.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if got := byName["dirty-full"].PerLayer["serve.traps_share"]; got != 1.0/16 {
		t.Errorf("dirty-full: serve.traps_share = %v, want the seeded 1/16", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(kind string, want, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: %d metrics in main.go, %d in BENCHMARK.json", kind, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s[%d]: main.go has %+v, BENCHMARK.json %+v", kind, i, want[i], got[i])
			}
		}
	}
	same("end_to_end", endToEndMetrics, bj.EndToEnd)
	same("per_layer", perLayerMetrics, bj.PerLayer)

	ws, err := newWorkloads(1, defaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(bj.Workloads) {
		t.Fatalf("%d workloads in workloads.go, %d in BENCHMARK.json", len(ws), len(bj.Workloads))
	}
	for i, w := range ws {
		if w.name != bj.Workloads[i].Name || w.why != bj.Workloads[i].Why {
			t.Errorf("workload %d: workloads.go has %q (%q), BENCHMARK.json %q (%q)",
				i, w.name, w.why, bj.Workloads[i].Name, bj.Workloads[i].Why)
		}
	}
}
