package exec_test

// Dispatch counts, measured without touching the dispatch loop: a copy
// of the fused program gets an OpFence in front of every instruction a
// probe selects, with every branch retargeted to the fence in front of
// its target. A fence has no semantic effect and is itself one dispatch
// that charges EvFence, so the extra EvFence count of a run is exactly
// the number of times the selected instructions were dispatched.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// probe selects instruction pc of function fn.
type probe func(fn, pc int, in ir.Instr) bool

// everything selects every instruction.
func everything(int, int, ir.Instr) bool { return true }

// withProbes returns a copy of p with an OpFence in front of every
// instruction sel selects.
func withProbes(p *ir.Program, sel probe) *ir.Program {
	out := *p
	out.Funcs = make([]ir.Func, len(p.Funcs))
	for fi, f := range p.Funcs {
		newPC := make([]int, len(f.Code)+1)
		code := make([]ir.Instr, 0, 2*len(f.Code))
		for pc, in := range f.Code {
			newPC[pc] = len(code)
			if sel(fi, pc, in) {
				code = append(code, ir.Instr{Op: ir.OpFence})
			}
			code = append(code, in)
		}
		newPC[len(f.Code)] = len(code)
		for pc := range code {
			code[pc].Retarget(newPC)
		}
		out.Funcs[fi] = f
		out.Funcs[fi].Code = code
	}
	if err := ir.BuildCharges(&out); err != nil {
		panic(err)
	}
	return &out
}

// dispatchProgram is one module under one preset, lowered and fused,
// the argument its run(n) is measured with, and the EvFence count of
// that run unprobed.
type dispatchProgram struct {
	name  string
	m     *wasm.Module
	feats core.Features
	prog  *ir.Program
	arg   uint64
	base  uint64
}

func newDispatchProgram(t *testing.T, name, src string, opts codegen.Options, feats core.Features, arg uint64) dispatchProgram {
	t.Helper()
	m, err := polybench.Build(polybench.Kernel{Source: src}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.LowerModule(m, exec.Config{Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	d := dispatchProgram{name: name, m: m, feats: feats, prog: fuse.Fuse(prog, nil), arg: arg}
	d.base = d.fences(t, d.prog)
	return d
}

// fences runs prog to completion and returns EvFence.
func (d dispatchProgram) fences(t *testing.T, prog *ir.Program) uint64 {
	t.Helper()
	var ctr arch.Counter
	inst, err := kernelInstance(d.m, d.feats, &ctr, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.InvokeWith(context.Background(), "run", []uint64{d.arg}, exec.CallOptions{}); err != nil {
		t.Fatalf("%s: run(%d): %v", d.name, d.arg, err)
	}
	return ctr.Get(arch.EvFence)
}

// count returns how many times the instructions sel selects were
// dispatched in one run.
func (d dispatchProgram) count(t *testing.T, sel probe) uint64 {
	t.Helper()
	return d.fences(t, withProbes(d.prog, sel)) - d.base
}

// gatedPrograms are the four gated classes of the kernel workloads
// under full, at the sizes the benchmark runs them.
func gatedPrograms(t *testing.T) []dispatchProgram {
	opts := codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}
	var ps []dispatchProgram
	for _, name := range []string{"gemm", "jacobi-1d", "atax"} {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, newDispatchProgram(t, name, k.Source, opts, core.CageAll(), uint64(k.BenchN)))
	}
	k := polybench.TwoMMVariant(polybench.CallAuthenticated)
	return append(ps, newDispatchProgram(t, k.Name, k.Source, opts, core.CageAll(), 24))
}

// innermostLoops returns [head, latch] of every loop in code that holds
// no other loop: a branch back to a PC at or before it, with no other
// backward branch in between.
func innermostLoops(code []ir.Instr) [][2]int {
	target := func(in ir.Instr) (int, bool) {
		switch {
		case in.Op == ir.OpBr || in.Op == ir.OpBrIf:
			return int(in.B), true
		case in.Op.IsFusedBranch():
			return ir.FusedBranchTarget(in.B), true
		}
		return 0, false
	}
	var back [][2]int
	for pc, in := range code {
		if h, ok := target(in); ok && h <= pc {
			back = append(back, [2]int{h, pc})
		}
	}
	var loops [][2]int
	for _, l := range back {
		inner := true
		for _, o := range back {
			if o != l && o[0] >= l[0] && o[1] <= l[1] {
				inner = false
			}
		}
		if inner {
			loops = append(loops, l)
		}
	}
	return loops
}

func calls(code []ir.Instr) bool {
	for _, in := range code {
		if in.Op == ir.OpCall || in.Op == ir.OpCallIndirect {
			return true
		}
	}
	return false
}

// TestDispatchGate is the structural, timing-free gate on what the fuse
// pass leaves the gated kernels: every hot innermost loop — one that
// calls nothing and takes at least a tenth of the run's dispatches —
// runs in at most 5 dispatches per iteration in gemm, atax and
// 2mm-ptr-auth and in at most 8 in jacobi-1d's 3-point stencil, and one
// run of each of the four gated classes takes at most 500 000
// dispatches together.
func TestDispatchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four gated kernels at benchmark size")
	}
	if exec.RaceEnabled {
		t.Skip("the counts are deterministic; CI runs the gate in its own step without the race detector")
	}
	const maxTotal = 500_000
	var total uint64
	for _, g := range gatedPrograms(t) {
		run := g.count(t, everything)
		total += run
		maxBody := 5
		if g.name == "jacobi-1d" {
			maxBody = 8
		}
		hot := 0
		for fi, f := range g.prog.Funcs {
			for _, l := range innermostLoops(f.Code) {
				body := f.Code[l[0] : l[1]+1]
				if calls(body) {
					continue // the initialization loops
				}
				n := g.count(t, func(fn, pc int, _ ir.Instr) bool { return fn == fi && pc >= l[0] && pc <= l[1] })
				if 10*n < run {
					continue
				}
				hot++
				if len(body) > maxBody {
					t.Errorf("%s func %d: hot loop [%d, %d] is %d dispatches per iteration, want <= %d: %v",
						g.name, fi, l[0], l[1], len(body), maxBody, body)
				}
			}
		}
		if hot == 0 {
			t.Errorf("%s: no innermost loop takes a tenth of the run's dispatches", g.name)
		}
	}
	t.Logf("gated dispatches per run: %d", total)
	if total > maxTotal {
		t.Errorf("gated classes take %d dispatches per run, want <= %d", total, maxTotal)
	}
}

const dispatchCensusFile = "testdata/dispatch_census.txt"

// TestDispatchCensus pins how often each fused opcode is dispatched,
// summed over the 25 polybench kernels and 2mm-ptr-auth at TestN, under
// each of the seven presets, to testdata/dispatch_census.txt. A change
// to what the fuse pass emits fails it, and so does a fused opcode that
// no preset dispatches: an opcode the workloads never reach is a row, a
// case in run and tests kept for nothing.
func TestDispatchCensus(t *testing.T) {
	if testing.Short() || exec.RaceEnabled {
		t.Skip("runs every kernel once per fused opcode it contains; nothing in it is concurrent")
	}
	want, err := os.ReadFile(dispatchCensusFile)
	if err != nil {
		t.Fatal(err)
	}
	got, counts := dispatchCensus(t)
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		var n uint64
		for _, c := range counts[op] {
			n += c
		}
		if n == 0 {
			t.Errorf("%v: no preset dispatches it", op)
		}
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", dispatchCensusFile, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", dispatchCensusFile, len(gl), len(wl))
}

// dispatchCensus renders the census's text — a header, then one line
// per fused opcode with its dispatches under each preset in
// dispatchConfigs' order — and returns the counts behind it.
func dispatchCensus(t *testing.T) (string, map[ir.Op][]uint64) {
	kernels := append(polybench.Kernels(), polybench.TwoMMVariant(polybench.CallAuthenticated))
	counts := map[ir.Op][]uint64{}
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		counts[op] = make([]uint64, len(dispatchConfigs))
	}
	for ci, cfg := range dispatchConfigs {
		for _, k := range kernels {
			d := newDispatchProgram(t, k.Name+"/"+cfg.name, k.Source, cfg.opts, cfg.feats, uint64(k.TestN))
			present := map[ir.Op]bool{}
			for _, f := range d.prog.Funcs {
				for _, in := range f.Code {
					if in.Op.IsFused() {
						present[in.Op] = true
					}
				}
			}
			for op := range present {
				counts[op][ci] += d.count(t, func(_, _ int, in ir.Instr) bool { return in.Op == op })
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# fused dispatches, 25 polybench kernels + 2mm-ptr-auth at TestN\n# op")
	for _, cfg := range dispatchConfigs {
		fmt.Fprintf(&b, " %s", cfg.name)
	}
	b.WriteString("\n")
	for op := ir.OpFusedBase; op.IsFused(); op++ {
		b.WriteString(op.String())
		for _, n := range counts[op] {
			fmt.Fprintf(&b, " %d", n)
		}
		b.WriteString("\n")
	}
	return b.String(), counts
}
