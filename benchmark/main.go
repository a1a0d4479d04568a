// Command benchmark is the repo's one performance yardstick: seven named
// workloads, five gated end-to-end metrics each, and a traced pass that
// attributes the latency to layers from the HTTP client down to the tag
// check. See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cage"
)

// metric is one row of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are gated: a later change may not worsen one by more
// than its bound. sim_us_per_op and fuel_per_op are deterministic, so
// their bound only has to be above zero; -check-repeat demands equality.
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_us_per_op", "sim_us", "lower", 0.001},
	{"fuel_per_op", "events", "lower", 0.001},
}

var perLayerMetrics = []metric{
	{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.http_self_us", Unit: "us", Better: "lower"},
	{Name: "client.heldout_lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.upload_us", Unit: "us", Better: "lower"},
	{Name: "serve.traps_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "cage.call_us", Unit: "us", Better: "lower"},
	{Name: "cage.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "engine.checkout_us", Unit: "us", Better: "lower"},
	{Name: "engine.checkin_us", Unit: "us", Better: "lower"},
	{Name: "engine.spawned_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.restores_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.idle_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "engine.program_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "engine.module_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "engine.retained_mb_per_module", Unit: "MB", Better: "lower"},
	{Name: "exec.guest_us", Unit: "us", Better: "lower"},
	{Name: "exec.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "exec.events_per_op", Unit: "events", Better: "lower"},
	{Name: "exec.instantiate_us", Unit: "us", Better: "lower"},
	{Name: "exec.snapshot_capture_us", Unit: "us", Better: "lower"},
	{Name: "exec.restore_us", Unit: "us", Better: "lower"},
	{Name: "mte.tag_checks_per_op", Unit: "count", Better: "lower"},
	{Name: "mte.tag_stores_per_op", Unit: "count", Better: "lower"},
	{Name: "mte.check_ns", Unit: "ns", Better: "lower"},
	{Name: "mte.settag_ns_per_kb", Unit: "ns/KB", Better: "lower"},
	{Name: "pac.ops_per_op", Unit: "count", Better: "lower"},
	{Name: "pac.sign_auth_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc.malloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "minicc.parse_analyze_us", Unit: "us", Better: "lower"},
	{Name: "codegen.compile_us", Unit: "us", Better: "lower"},
	{Name: "codegen.module_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wasm.encode_us", Unit: "us", Better: "lower"},
	{Name: "wasm.decode_validate_us", Unit: "us", Better: "lower"},
	{Name: "ir.lower_us", Unit: "us", Better: "lower"},
	{Name: "ir.instrs", Unit: "count", Better: "lower"},
	{Name: "fuse.fuse_us", Unit: "us", Better: "lower"},
	{Name: "fuse.fused_ops", Unit: "count", Better: "higher"},
	{Name: "arch.sim_cycles_x3_per_op", Unit: "cycles", Better: "lower"},
	{Name: "arch.sim_cycles_a510_per_op", Unit: "cycles", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.ref_lat_p50_us", Unit: "us", Better: "lower"},
}

// envBlock is the host and build metadata every result and trace carries.
type envBlock struct {
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	CPUModel    string         `json:"cpu_model"`
	GoVersion   string         `json:"go_version"`
	GitCommit   string         `json:"git_commit"`
	BuildTags   string         `json:"build_tags"`
	RestoreMode string         `json:"restore_mode"`
	MemoryMode  string         `json:"memory_mode"`
	FusionProf  string         `json:"fusion_profile"`
	Seed        int64          `json:"seed"`
	Rounds      int            `json:"rounds"`
	Seconds     float64        `json:"seconds"`
	Ops         map[string]int `json:"ops_attempted"`
}

func newEnv(cfg *config) envBlock {
	env := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Seed: cfg.seed, Rounds: cfg.rounds, Seconds: cfg.seconds, Ops: map[string]int{},
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				env.BuildTags = s.Value
			}
		}
	}
	eng := cage.NewEngine(cage.FullHardening())
	env.RestoreMode = eng.RestoreMode()
	env.MemoryMode, env.FusionProf = eng.DispatchMode()
	eng.Close()
	return env
}

// gitCommit reads HEAD from the nearest .git directory, without running
// git: the driver's checkout has none and then the answer is "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(sha))
				}
				return name
			}
			return ref
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// runAll runs the selected workloads: set-up, interleaved measured
// rounds (A B C ... A B C ...), then the traced pass.
func runAll(cfg *config, name string, measure, trace bool) ([]result, envBlock, error) {
	env := newEnv(cfg)
	all, err := newWorkloads(cfg.seed, cfg.sizes)
	if err != nil {
		return nil, env, err
	}
	var runners []*runner
	for _, w := range all {
		if name == w.name || name == "all" {
			runners = append(runners, &runner{w: w, cfg: cfg})
		}
	}
	if len(runners) == 0 {
		return nil, env, fmt.Errorf("no workload named %q; have %v", name, workloadNames(all))
	}
	defer func() {
		for _, rn := range runners {
			rn.closeDepths()
		}
	}()

	results := make([]result, len(runners))
	for i, rn := range runners {
		results[i].Workload = rn.w.name
	}
	if measure {
		for _, rn := range runners {
			if err := rn.setupPrimary(); err != nil {
				return nil, env, err
			}
		}
		budget := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
		for r := 0; r < cfg.rounds; r++ {
			for _, rn := range runners {
				rs, err := rn.runRound(r, budget)
				if err != nil {
					return nil, env, err
				}
				if rs.firstError != nil {
					cfg.logf("FAIL %v", rs.firstError)
				}
				rn.rounds = append(rn.rounds, rs)
			}
		}
		for i, rn := range runners {
			results[i].EndToEnd, results[i].Attempted, results[i].Failed = rn.endToEnd()
		}
	}
	if trace {
		hw, err := probeHardware(cfg.probeIters, cage.FullHardening())
		if err != nil {
			return nil, env, err
		}
		for i, rn := range runners {
			attempted, failed, err := rn.tracePass(hw, env, time.Duration(cfg.seconds*float64(time.Second)))
			if err != nil {
				return nil, env, err
			}
			results[i].PerLayer = rn.layers
			results[i].Attempted += attempted
			results[i].Failed += failed
		}
	}
	for i := range results {
		env.Ops[results[i].Workload] = results[i].Attempted
	}
	return results, env, nil
}

func workloadNames(ws []*workload) []string {
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	return names
}

// report prints every metric by name with its unit.
func report(results []result) {
	for _, res := range results {
		fmt.Printf("== %s: attempted %d, failed %d, fail_share %g\n",
			res.Workload, res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
		for _, m := range endToEndMetrics {
			if v, ok := res.EndToEnd[m.Name]; ok {
				fmt.Printf("  %-34s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
		for _, m := range perLayerMetrics {
			if res.PerLayer != nil {
				fmt.Printf("    %-32s %16.4f %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
			}
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the one JSON object the driver reads. For a single workload
// metric names are bare; for several they are "<workload>/<metric>".
func lastLine(results []result) string {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.Workload + "/"
		}
		if res.EndToEnd != nil {
			for _, m := range endToEndMetrics {
				out.Metrics[prefix+m.Name] = jsonMetric{res.EndToEnd[m.Name], m.Unit}
			}
		}
		if res.PerLayer != nil {
			for _, m := range perLayerMetrics {
				out.Metrics[prefix+m.Name] = jsonMetric{res.PerLayer[m.Name], m.Unit}
			}
		}
	}
	out.Correct = out.Failed == 0
	b, _ := json.Marshal(out) // plain maps and numbers cannot fail to marshal
	return string(b)
}

// checkRepeat compares two runs of the same code by the benchmark's own
// bounds: timings within their bound, deterministic metrics equal.
func checkRepeat(a, b []result) []string {
	var bad []string
	for i := range a {
		for _, m := range endToEndMetrics {
			x, y := a[i].EndToEnd[m.Name], b[i].EndToEnd[m.Name]
			switch m.Name {
			case "sim_us_per_op", "fuel_per_op":
				if x != y {
					bad = append(bad, fmt.Sprintf("%s %s: %v != %v (must repeat exactly)", a[i].Workload, m.Name, x, y))
				}
			default:
				if d := math.Abs(x-y) / math.Min(x, y); d > m.Bound {
					bad = append(bad, fmt.Sprintf("%s %s: %v vs %v differ by %.1f%% > %.0f%%", a[i].Workload, m.Name, x, y, d*100, m.Bound*100))
				}
			}
		}
		for _, m := range perLayerMetrics {
			// Counts of simulated events and of compiler output repeat
			// exactly; heap allocation counts belong to the Go runtime.
			counted := m.Unit == "count" || m.Unit == "events" || m.Unit == "cycles" || m.Unit == "bytes"
			if !counted || strings.Contains(m.Name, "allocs") {
				continue
			}
			if x, y := a[i].PerLayer[m.Name], b[i].PerLayer[m.Name]; x != y {
				bad = append(bad, fmt.Sprintf("%s %s: %v != %v (count must repeat exactly)", a[i].Workload, m.Name, x, y))
			}
		}
	}
	return bad
}

// outDir is benchmark/out from the repo root, out from the package
// directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "drives the kernel draw, class order, add arguments and cold-start salts")
		seconds      = flag.Float64("seconds", 10, "measured time per workload")
		rounds       = flag.Int("rounds", 10, "rounds per workload: the unit in which several workloads are interleaved")
		blocks       = flag.Int("blocks", 0, "run exactly this many blocks per round instead of -seconds")
		traceFlag    = flag.String("trace", "both", "0: end-to-end rounds only; 1: traced pass only; both")
		repeat       = flag.Bool("check-repeat", false, "run everything twice and fail unless the two runs agree within the bounds")
	)
	flag.Parse()
	if *rounds < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -rounds and -seconds must be positive")
		return 2
	}
	if *traceFlag != "0" && *traceFlag != "1" && *traceFlag != "both" {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0, 1 or both")
		return 2
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, rounds: *rounds, blocks: *blocks,
		setupRepeats: 5, setupBudget: 2 * time.Second, probeIters: 200_000, probeReps: 3, sizes: defaultSizes, outDir: outDir(),
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	measure, trace := *traceFlag != "1", *traceFlag != "0"

	results, env, err := runAll(cfg, *workloadFlag, measure, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	if *repeat {
		again, _, err := runAll(cfg, *workloadFlag, measure, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, msg := range checkRepeat(results, again) {
			fmt.Fprintln(os.Stderr, "check-repeat:", msg)
			code = 1
		}
	}

	envJSON, _ := json.Marshal(struct {
		Env envBlock `json:"env"`
	}{env})
	fmt.Println(string(envJSON))
	report(results)
	if err := writeResults(cfg.outDir, env, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	fmt.Println(lastLine(results))
	for _, res := range results {
		if res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// writeResults keeps the full result next to the traces.
func writeResults(dir string, env envBlock, results []result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Env     envBlock `json:"env"`
		Results []result `json:"results"`
	}{env, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
}
