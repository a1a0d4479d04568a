// Command cage-objdump disassembles a wasm binary into a WAT-style text
// listing, including the Cage extension instructions.
//
// With -lowered it additionally disassembles the internal/ir program
// the interpreter actually executes — absolute-PC branches, specialized
// memory opcodes, PAC nop variants — as lowered for the chosen
// configuration, with each function's frame layout: the FrameSize the
// frame machine reserves in the value arena and the slot ranges for
// params, declared locals, and the operand stack. That is the form in
// which interrupt-check placement is audited: every br/br_if/br_ifz/
// br_table taken edge in the lowered stream (the superset of loop
// back-edges) and every call/call_indirect is a cancellation and fuel
// checkpoint of the context-first Call API.
//
// The lowered listing shows the program in the form the engine caches
// and executes: after the superinstruction pass (internal/fuse). Each
// fused superinstruction is printed with its constituent ops expanded
// inline, so the listing remains auditable against the wasm source;
// -nofuse shows the raw pre-fusion stream.
// The mnemonic shows what the fuse pass decided: a tuple with a row of
// its own in internal/ir's form table (an idiom) prints under the
// concrete name (fused.const+i64.mul+i64.add, run as straight-line
// code), any other tuple under its shape's (fused.const+alu+alu, run
// through the executor's one inline ALU). The expansion is the row's.
//
// Usage:
//
//	cage-objdump [-lowered] [-nofuse] [-config full|hardened|baseline32|baseline64|memsafety|ptrauth|sandbox] module.wasm
//
// Under -config=hardened the lowered listing additionally shows the
// speculation barriers of the Spectre-hardened preset: a fence
// annotation immediately before every return, call_indirect, and
// br_table.
package main

import (
	"flag"
	"fmt"
	"os"

	"cage"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/wasm"
)

func main() {
	lowered := flag.Bool("lowered", false, "also disassemble the lowered internal/ir program")
	nofuse := flag.Bool("nofuse", false, "show the lowered program before the superinstruction pass")
	cfgName := flag.String("config", "full", "configuration the lowered program is specialized for")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cage-objdump [-lowered] [-nofuse] [-config name] module.wasm")
		os.Exit(2)
	}
	bin, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-objdump: %v\n", err)
		os.Exit(1)
	}
	m, err := wasm.Decode(bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-objdump: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(wasm.Wat(m))
	if !*lowered {
		return
	}

	cfg, err := cage.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-objdump: %v\n", err)
		os.Exit(2)
	}
	lcfg := exec.LowerConfig(m, exec.Config{Features: cfg.Features()})
	prog, err := ir.Lower(m, lcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-objdump: lower: %v\n", err)
		os.Exit(1)
	}

	fusion := "nofuse"
	if !*nofuse {
		prog = fuse.Fuse(prog, nil)
		fusion = "fused"
	}

	fmt.Printf("\n;; lowered program (config=%s mode=%s memsafety=%t ptrauth=%t harden=%t %s)\n",
		*cfgName, lcfg.Mode, lcfg.MemSafety, lcfg.PtrAuth, lcfg.Harden, fusion)
	numImports := len(m.Imports)
	for i := range prog.Funcs {
		fn := &prog.Funcs[i]
		fmt.Printf(";; func[%d] params=%d results=%d locals=%d maxstack=%d framesize=%d\n",
			numImports+i, fn.NumParams, fn.NumResults, fn.NumLocals, fn.MaxStack, fn.FrameSize)
		// The frame machine's slot layout: one activation occupies
		// FrameSize contiguous arena slots — params, declared locals,
		// then the operand stack.
		fmt.Printf(";;   frame: slots [0,%d) params | [%d,%d) locals | [%d,%d) operand stack\n",
			fn.NumParams, fn.NumParams, fn.StackBase(), fn.StackBase(), fn.FrameSize)
		for pc, in := range fn.Code {
			fmt.Printf("  %4d: %s\n", pc, in)
			// A superinstruction's constituents, expanded inline so the
			// listing stays auditable against the wasm source.
			for _, c := range in.Constituents() {
				fmt.Printf("        ;; = %s\n", c)
			}
		}
	}
}
