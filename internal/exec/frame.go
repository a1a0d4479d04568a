package exec

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cage/internal/arch"
	"cage/internal/ir"
	"cage/internal/pac"
	"cage/internal/wasm"
)

// This file is the frame machine: the single dispatch loop that executes
// every live guest activation out of one contiguous per-instance value
// arena. A guest→guest call pushes a frame record and opens the callee's
// frame at the caller's operand-stack top — the arguments already sit in
// the callee's parameter slots, so nothing is copied and nothing is
// allocated. A return slides the results down onto the caller's stack.
// Go recursion and Go allocation only happen at the sandbox boundary:
// the embedder's entry into invoke, and a host function re-entering the
// guest through HostContext.Call.

// frameRec is one live guest activation: the function, the pc to resume
// at once its callee returns, and where its frame begins in the arena.
type frameRec struct {
	fn   *ir.Func
	pc   int // resume pc (the instruction after the call) while a callee runs
	base int // arena index of frame slot 0 (first parameter)
}

// defaultMaxStackWords bounds the value arena when Config.MaxStackWords
// is zero: 1<<22 slots = 32 MiB, far above any legitimate frame tower
// under the default 1024-frame depth bound, but exact — a guest that
// reaches it traps with TrapStackOverflow instead of eating host memory.
const defaultMaxStackWords = 1 << 22

// growArena extends the value arena to at least need slots. Absolute
// indices stay valid across growth (the arena is only ever indexed, never
// held by pointer), and a pooled instance retains the grown arena across
// Reset, so steady-state execution never re-grows.
func (inst *Instance) growArena(need int) {
	newCap := 2 * len(inst.vals)
	if newCap < need {
		newCap = need
	}
	if newCap < 64 {
		newCap = 64
	}
	grown := make([]uint64, newCap)
	copy(grown, inst.vals)
	inst.vals = grown
}

// pushGuestFrame opens a callee activation whose parameters already sit
// at newBase (the caller's operand-stack top minus the argument count).
// It enforces the exact frame-count and arena-word bounds, grows the
// arena if needed, zeroes the callee's declared locals — the arena is
// reused, so a fresh frame must not see a dead frame's values — and
// pushes the frame record.
func (inst *Instance) pushGuestFrame(callee *ir.Func, newBase int) error {
	if inst.depth >= inst.maxCallDepth {
		return newTrap(TrapStackOverflow, "frame %d exceeds depth limit %d",
			inst.depth+1, inst.maxCallDepth)
	}
	need := newBase + callee.FrameSize
	if uint64(need) > inst.maxStackWords {
		return newTrap(TrapStackOverflow, "value stack %d words exceeds limit %d",
			need, inst.maxStackWords)
	}
	if need > len(inst.vals) {
		inst.growArena(need)
	}
	if need > inst.valsHigh {
		inst.valsHigh = need
	}
	lb := newBase + callee.NumParams
	clear(inst.vals[lb : lb+callee.NumLocals])
	inst.depth++
	inst.frames = append(inst.frames, frameRec{fn: callee, base: newBase})
	return nil
}

// invoke runs function fidx with args, returning result values. It is
// the boundary entry into the frame machine — the embedder's Invoke /
// InvokeWith, the start function, and a host function re-entering the
// guest all come through here. Each entry is a re-entry barrier: its
// frames stack above every frame already live (arenaTop marks the first
// free arena slot, maintained by the dispatch loop across host
// crossings), and however the run unwinds — normal return, trap, or a
// panic out of a host function — the barrier state is restored, so an
// outer in-flight activation can always continue.
func (inst *Instance) invoke(fidx uint32, args []uint64) ([]uint64, error) {
	return inst.invokeInto(fidx, args, nil)
}

// invokeInto is invoke with an optional caller-provided result buffer
// (see CallOptions.Results): when resBuf has the capacity, the result
// values are written into it and no slice is allocated.
func (inst *Instance) invokeInto(fidx uint32, args []uint64, resBuf []uint64) ([]uint64, error) {
	// Interrupt checkpoint: every call boundary polls the per-call meter
	// (if armed), so cancellation reaches even loop-free recursion.
	if m := inst.meter; m != nil {
		if err := m.check(inst.counter); err != nil {
			return nil, err
		}
	}
	if int(fidx) < len(inst.imports) {
		if inst.depth >= inst.maxCallDepth {
			return nil, newTrap(TrapStackOverflow, "frame %d exceeds depth limit %d",
				inst.depth+1, inst.maxCallDepth)
		}
		inst.depth++
		defer func() { inst.depth-- }()
		res, err := inst.callHost(int(fidx), args)
		if err != nil {
			return nil, err
		}
		// A typed host function's result lives in per-instance storage
		// (HostContext.result); the embedder gets its own copy.
		return append(resBuf[:0], res...), nil
	}
	di := int(fidx) - len(inst.imports)
	if di >= len(inst.prog.Funcs) {
		return nil, newTrap(TrapIndirectCall, "function index %d out of range", fidx)
	}
	fn := &inst.prog.Funcs[di]
	if len(args) != fn.NumParams {
		return nil, newTrap(TrapIndirectCall, "function %d expects %d args, got %d",
			fidx, fn.NumParams, len(args))
	}
	if inst.features.SpectreHarden {
		// Sandbox transition (host→guest entry): the hardened config
		// flushes the branch-target buffer so predictor state trained on
		// one side of the boundary cannot steer indirect branches on the
		// other.
		inst.counter.Add(arch.EvBTBFlush, 1)
	}

	// Re-entry barrier: everything below this entry's frame belongs to
	// an outer activation and is restored verbatim on exit.
	base := inst.arenaTop
	barrier := len(inst.frames)
	entryDepth := inst.depth
	defer func() {
		inst.frames = inst.frames[:barrier]
		inst.arenaTop = base
		inst.depth = entryDepth
	}()

	// The one argument copy of the call tree: boundary args into the
	// entry frame. Guest→guest calls inside run never copy again.
	if err := inst.pushGuestFrame(fn, base); err != nil {
		return nil, err
	}
	copy(inst.vals[base:], args)

	if err := inst.runProtected(barrier); err != nil {
		return nil, err
	}
	var res []uint64
	if cap(resBuf) >= fn.NumResults {
		res = resBuf[:fn.NumResults]
	} else {
		res = make([]uint64, fn.NumResults)
	}
	copy(res, inst.vals[base:base+fn.NumResults])
	return res, nil
}

// callHost crosses the sandbox boundary into an imported host
// function. The host runs under the instance's one HostContext, which
// reads the in-flight call's context; on return, errors are classified:
//
//   - a *Trap propagates unchanged (so a re-entrant guest call's trap,
//     or WASI's proc_exit, keeps its code);
//   - a context error — a blocking host function that observed
//     cancellation via HostContext.Context — becomes TrapInterrupted,
//     exactly like a cancellation caught at a guest checkpoint;
//   - anything else is a TrapHost.
//
// Even a successful host return re-polls the meter chain, so a
// deadline that fired while the guest was parked inside the host traps
// here instead of running guest code until the next branch.
//
// args may be a view into the value arena (the dispatch loop passes the
// caller's operand-stack top directly); it is valid for the duration of
// the host call only, which is exactly the HostContext lifetime host
// functions are already bound to.
func (inst *Instance) callHost(idx int, args []uint64) ([]uint64, error) {
	hf := inst.imports[idx]
	res, err := hf.Fn(&inst.hostCtx, args)
	if err != nil {
		var t *Trap
		if errors.As(err, &t) {
			return nil, t
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &Trap{Code: TrapInterrupted, Msg: "during host call", Cause: err}
		}
		return nil, &Trap{Code: TrapHost, Msg: err.Error()}
	}
	if m := inst.meter; m != nil {
		if err := m.checkSync(inst.counter); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// branchRepair applies a branch's precomputed stack repair: carry the
// top arity values, truncate to the recorded height, in place.
func branchRepair(stack []uint64, keep, arity int) []uint64 {
	if arity > 0 {
		copy(stack[keep:keep+arity], stack[len(stack)-arity:])
	}
	return stack[:keep+arity]
}

// run drives the frame machine until the activation that entered at
// barrier returns: one flat dispatch loop over the pre-resolved
// instruction stream of whichever frame is on top. There is no control
// stack and no end/else matching — branches carry absolute target PCs
// and their stack repair — and each opcode reports its cost event(s) to
// the arch timing model, so one execution can still be priced on all
// three cores afterwards.
//
// The hot loop sees the top frame through two slice views into the
// value arena — locals (params + declared locals) and stack (the
// operand stack, capped at the frame's end) — so the per-opcode code is
// exactly the flat-dispatch fast path, with no absolute arithmetic.
// Frame arithmetic happens only at the call, return, and host-crossing
// blocks at the bottom, which re-derive the views from inst.vals; that
// re-derivation is also what keeps the views valid when a push or a
// re-entrant HostContext.Call grows the arena.
func (inst *Instance) run(barrier int) error {
	ctr := inst.counter
	// mtr is the per-call interruption meter, nil for unbounded calls:
	// every taken branch below (the superset of loop back-edges) and
	// every call is an interrupt checkpoint, and the unmetered variant
	// of that checkpoint is a single never-taken nil test.
	mtr := inst.meter
	entry := &inst.frames[len(inst.frames)-1]
	code := entry.fn.Code
	sb := entry.base + entry.fn.StackBase()
	locals := inst.vals[entry.base:sb:sb]
	stack := inst.vals[sb : sb : entry.base+entry.fn.FrameSize]
	pc := 0
	// callIdx/callN feed the shared call block at the bottom of the loop
	// (OpCall and OpCallIndirect converge there after resolving the
	// callee); declared outside the loop so the per-iteration fast path
	// never touches them.
	callIdx, callN := 0, 0
	// aluOp feeds the shared fused-ALU block at the bottom of the loop
	// (the shape-generic ALU-carrying superinstructions converge there);
	// like callIdx/callN it lives outside the loop so the fast path
	// never touches it. aluNext holds the ALUs of a multi-ALU
	// superinstruction that are still to run, the next one in the low
	// byte; the fused-ALU block always consumes it, so it is zero
	// whenever the main switch dispatches.
	var aluOp wasm.Opcode
	var aluNext uint32

	for {
		in := &code[pc]
		switch in.Op {
		case ir.OpUnreachable:
			return newTrap(TrapUnreachable, "at pc %d", pc)

		case ir.OpGoto:
			pc = int(in.B)
			continue

		case ir.OpBr:
			ctr.Add(arch.EvBranch, 1)
			stack = branchRepair(stack, ir.BranchKeep(in.A), ir.BranchArity(in.A))
			pc = int(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue

		case ir.OpBrIf:
			ctr.Add(arch.EvBranch, 1)
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) != 0 {
				stack = branchRepair(stack, ir.BranchKeep(in.A), ir.BranchArity(in.A))
				pc = int(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}

		case ir.OpBrIfZ:
			ctr.Add(arch.EvBranch, 1)
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) == 0 {
				pc = int(in.B)
				// Taken BrIfZ is a branch like any other and therefore an
				// interrupt checkpoint; skipping it would let a loop whose
				// only taken edges are if-conditionals outrun WithTimeout
				// and WithFuel.
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}

		case ir.OpBrTable:
			ctr.Add(arch.EvBrTable, 1)
			i := uint32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			ts := in.Targets
			t := ts[len(ts)-1] // default
			if uint64(i) < uint64(len(ts)-1) {
				t = ts[i]
			}
			stack = branchRepair(stack, int(t.Keep), int(t.Arity))
			pc = int(t.PC)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue

		case ir.OpReturn:
			ctr.Add(arch.EvReturn, 1)
			goto ret
		case ir.OpRetEnd:
			goto ret

		case ir.OpFence:
			// Speculation barrier of the hardened lowering: no semantic
			// effect, priced as a pipeline drain by the timing model.
			ctr.Add(arch.EvFence, 1)

		case ir.OpCall:
			ctr.Add(arch.EvCall, 1)
			callIdx, callN = int(in.A), int(in.B)
			goto call

		case ir.OpCallIndirect:
			ctr.Add(arch.EvCallIndirect, 1)
			ti := uint32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if uint64(ti) >= uint64(len(inst.table)) {
				return newTrap(TrapIndirectCall, "table index %d out of range", ti)
			}
			fidx := inst.table[ti]
			if fidx < 0 {
				return newTrap(TrapIndirectCall, "null table entry %d", ti)
			}
			want := inst.module.Types[in.A]
			got, err := inst.module.FuncTypeAt(uint32(fidx))
			if err != nil {
				return newTrap(TrapIndirectCall, "%v", err)
			}
			if !got.Equal(want) {
				return newTrap(TrapIndirectCall,
					"signature mismatch: table entry %d has %v, expected %v", ti, got, want)
			}
			callIdx, callN = int(fidx), int(in.B)
			goto call

		case ir.OpDrop:
			stack = stack[:len(stack)-1]

		case ir.OpSelect:
			ctr.Add(arch.EvSelect, 1)
			if uint32(stack[len(stack)-1]) == 0 {
				stack[len(stack)-3] = stack[len(stack)-2]
			}
			stack = stack[:len(stack)-2]

		case ir.OpLocalGet:
			ctr.Add(arch.EvLocal, 1)
			stack = append(stack, locals[in.A])
		case ir.OpLocalSet:
			ctr.Add(arch.EvLocal, 1)
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case ir.OpLocalTee:
			ctr.Add(arch.EvLocal, 1)
			locals[in.A] = stack[len(stack)-1]

		case ir.OpGlobalGet:
			ctr.Add(arch.EvGlobal, 1)
			stack = append(stack, inst.globals[in.A])
		case ir.OpGlobalSet:
			ctr.Add(arch.EvGlobal, 1)
			inst.globals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		case ir.OpConst:
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, in.A)

		case ir.OpMemorySize:
			ctr.Add(arch.EvALU, 1)
			stack = append(stack, inst.memSize/wasm.PageSize)
		case ir.OpMemoryGrow:
			ctr.Add(arch.EvMemGrow, 1)
			stack[len(stack)-1] = inst.memoryGrow(stack[len(stack)-1])
		case ir.OpMemoryFill:
			n, err := inst.memoryFill(stack)
			if err != nil {
				return err
			}
			stack = stack[:n]
		case ir.OpMemoryCopy:
			n, err := inst.memoryCopy(stack)
			if err != nil {
				return err
			}
			stack = stack[:n]

		case ir.OpSegmentNew:
			length := stack[len(stack)-1]
			ptr := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			tagged, err := inst.segmentNew(ptr, length, in.A)
			if err != nil {
				return err
			}
			stack = append(stack, tagged)
		case ir.OpSegmentSetTag:
			length := stack[len(stack)-1]
			tagged := stack[len(stack)-2]
			ptr := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if err := inst.segmentSetTag(ptr, tagged, length, in.A); err != nil {
				return err
			}
		case ir.OpSegmentFree:
			length := stack[len(stack)-1]
			tagged := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if err := inst.segmentFree(tagged, length, in.A); err != nil {
				return err
			}

		case ir.OpPtrSign:
			ctr.Add(arch.EvPACSign, 1)
			stack[len(stack)-1] = inst.keys.Sign(stack[len(stack)-1])
		case ir.OpPtrSignNop:
			// PAC disabled: the instruction is a no-op fallback, but the
			// timing model still prices the lowered pacda.
			ctr.Add(arch.EvPACSign, 1)
		case ir.OpPtrAuth:
			ctr.Add(arch.EvPACAuth, 1)
			v, err := inst.keys.Auth(stack[len(stack)-1])
			if err != nil {
				if errors.Is(err, pac.ErrAuthFailed) {
					return newTrap(TrapAuthFailure, "i64.pointer_auth at pc %d", pc)
				}
				return err
			}
			stack[len(stack)-1] = v
		case ir.OpPtrAuthNop:
			ctr.Add(arch.EvPACAuth, 1)

		// Loads, specialized per address-translation mode at lower time.
		case ir.OpLoadG32:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrG32(stack[len(stack)-1], in.A, sz, inst.memSize, false)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadG32NC:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrG32(stack[len(stack)-1], in.A, sz, uint64(len(inst.mem)), false)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadB64:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-1], in.A, sz, false, true, false)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadB64NC:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-1], in.A, sz, false, false, false)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadB64Tag:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-1], in.A, sz, false, true, true)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadB64NCTag:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-1], in.A, sz, false, false, true)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadMTE:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrMTE(stack[len(stack)-1], in.A, sz, false, true)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadMTENC:
			ctr.Add(arch.EvLoad, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrMTE(stack[len(stack)-1], in.A, sz, false, false)
			if err != nil {
				return err
			}
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B), readScalar(inst.mem, addr, sz))
		case ir.OpLoadG32G:
			// Guard-region load: no Go-level bounds check at all. gmem is
			// the full 4 GiB+headroom reservation, so the index math can
			// never trip a slice bound; an uncommitted page faults in the
			// MMU and runProtected converts it to TrapOutOfBounds. Event
			// accounting matches OpLoadG32 exactly (guard32 charges no
			// per-access check events either way).
			ctr.Add(arch.EvLoad, 1)
			addr := uint64(uint32(stack[len(stack)-1])) + in.A
			stack[len(stack)-1] = extendLoad(ir.MemOp(in.B),
				readScalar(inst.gmem, addr, ir.MemSize(in.B)))

		// Stores, same specialization.
		case ir.OpStoreG32:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrG32(stack[len(stack)-2], in.A, sz, inst.memSize, true)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreG32NC:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrG32(stack[len(stack)-2], in.A, sz, uint64(len(inst.mem)), true)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreB64:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-2], in.A, sz, true, true, false)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreB64NC:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-2], in.A, sz, true, false, false)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreB64Tag:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-2], in.A, sz, true, true, true)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreB64NCTag:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrB64(stack[len(stack)-2], in.A, sz, true, false, true)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreMTE:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrMTE(stack[len(stack)-2], in.A, sz, true, true)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreMTENC:
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr, err := inst.addrMTE(stack[len(stack)-2], in.A, sz, true, false)
			if err != nil {
				return err
			}
			writeScalar(inst.mem, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]
		case ir.OpStoreG32G:
			// Guard-region store; see OpLoadG32G. The probe read of the
			// access's last byte makes the store all-or-nothing: if any
			// byte falls past the committed prefix the probe faults before
			// the write starts, so a trapped store is never partially
			// visible, and the dirty mark only ever indexes committed pages.
			ctr.Add(arch.EvStore, 1)
			sz := ir.MemSize(in.B)
			addr := uint64(uint32(stack[len(stack)-2])) + in.A
			gm := inst.gmem
			guardProbeSink = gm[addr+sz-1]
			inst.dirty.mark(addr, sz)
			writeScalar(gm, addr, sz, stack[len(stack)-1])
			stack = stack[:len(stack)-2]

		// Fused superinstructions (internal/fuse): each case executes its
		// constituents in order with the constituents' exact events and
		// trap points, so a fused program is observationally identical to
		// its unfused twin — results, traps, and event stream — and only
		// the dispatch count differs. Operand-stack peaks are also
		// identical (the constituents run one by one), so the frame's
		// precomputed MaxStack still bounds every append below. The
		// ALU-carrying cases converge on the fusedALU block at the bottom
		// of the loop, which runs the constituent without leaving the
		// dispatch frame.
		case ir.OpFusedGetGet:
			ctr.Add(arch.EvLocal, 2)
			stack = append(stack, locals[in.A], locals[in.B])
		case ir.OpFusedGet4:
			ctr.Add(arch.EvLocal, 4)
			stack = append(stack, locals[in.A>>48], locals[(in.A>>32)&0xFFFF],
				locals[(in.A>>16)&0xFFFF], locals[in.A&0xFFFF])
		case ir.OpFusedGetConst:
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, locals[in.A], in.B)
		case ir.OpFusedConstALU:
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, in.A)
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetALU:
			ctr.Add(arch.EvLocal, 1)
			stack = append(stack, locals[in.A])
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetGetALU:
			ctr.Add(arch.EvLocal, 2)
			stack = append(stack, locals[in.A>>32], locals[uint32(in.A)])
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetConstALU:
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, locals[ir.FusedBranchAux(in.B)], in.A)
			aluOp = wasm.Opcode(uint32(in.B))
			goto fusedALU
		case ir.OpFusedALUSet:
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedSetGet:
			// set then get, in order: when both name the same local the
			// get observes the just-set value, exactly like the unfused
			// pair.
			ctr.Add(arch.EvLocal, 2)
			locals[in.A] = stack[len(stack)-1]
			stack[len(stack)-1] = locals[in.B]
		case ir.OpFusedSetBr:
			ctr.Add(arch.EvLocal, 1)
			locals[ir.FusedBranchAux(in.B)] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ctr.Add(arch.EvBranch, 1)
			stack = branchRepair(stack, ir.BranchKeep(in.A), ir.BranchArity(in.A))
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		case ir.OpFusedCmpBrIf, ir.OpFusedCmpBrIfZ, ir.OpFusedCmpEqzBrIf:
			aluOp = wasm.Opcode(ir.FusedBranchAux(in.B))
			goto fusedALU
		case ir.OpFusedLoadALU:
			// Load constituent first: EvLoad, then the guard-region direct
			// access (no Go-level bounds check; see OpLoadG32G) or the
			// per-variant translated path out of line.
			ctr.Add(arch.EvLoad, 1)
			if ir.FusedMemVariant(in.B) == ir.OpLoadG32G {
				addr := uint64(uint32(stack[len(stack)-1])) + in.A
				stack[len(stack)-1] = extendLoad(ir.FusedMemOp(in.B),
					readScalar(inst.gmem, addr, ir.FusedMemSize(in.B)))
			} else {
				v, err := inst.fusedMemLoad(in, in.A, stack[len(stack)-1])
				if err != nil {
					return err
				}
				stack[len(stack)-1] = v
			}
			aluOp = ir.FusedMemALU(in.B)
			goto fusedALU
		case ir.OpFusedALULoad, ir.OpFusedALUStore:
			aluOp = ir.FusedMemALU(in.B)
			goto fusedALU
		case ir.OpFusedConstALUALU:
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, in.A)
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedGetALUGetALU:
			ctr.Add(arch.EvLocal, 1)
			stack = append(stack, locals[in.A>>32])
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedGetGetCmpEqzBr:
			ctr.Add(arch.EvLocal, 2)
			stack = append(stack, locals[in.A>>32], locals[uint32(in.A)])
			aluOp = wasm.Opcode(ir.FusedBranchAux(in.B))
			goto fusedALU
		case ir.OpFusedIncBr:
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, locals[ir.FusedBranchAux(in.B)], in.A>>8)
			aluOp = wasm.Opcode(in.A & 0xFF)
			goto fusedALU
		case ir.OpFusedGet3ALUGetALU:
			ctr.Add(arch.EvLocal, 3)
			stack = append(stack, locals[in.A>>48], locals[(in.A>>32)&0xFFFF],
				locals[(in.A>>16)&0xFFFF])
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedConstALUALULoadALU:
			ctr.Add(arch.EvConst, 1)
			stack = append(stack, in.A>>32)
			aluOp = wasm.Opcode((in.B >> 32) & 0xFF)
			aluNext = uint32(in.B>>40)&0xFF | uint32(ir.FusedMemALU(in.B))<<8
			goto fusedALU
		case ir.OpFusedALUSetIncBr:
			aluOp = wasm.Opcode(in.A >> 48)
			aluNext = uint32(in.A) & 0xFF
			goto fusedALU

		// Idiom superinstructions (ir/idiom.go): a generic shape above
		// with its ALU constituents named in the opcode, so the case is
		// straight-line code — no trip through fusedALU, no switch on an
		// ALU opcode. Operands go from locals, immediates and the entry
		// stack through Go locals to the final stack; the constituents'
		// events are charged in constituent order (the ones after a
		// memory constituent only once it has not trapped), and a memory
		// constituent is the shapes' fusedMemLoad, whose variant stays a
		// run-time field. Immediates are the shape's with the ALU fields
		// zero.
		case ir.OpFusedConstI64MulAdd:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvALU, 1)
			l := len(stack)
			stack[l-2] += stack[l-1] * in.A
			stack = stack[:l-1]
		case ir.OpFusedConstI64MulAddLoadF64Mul:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLoad, 1)
			l := len(stack)
			v, err := inst.fusedMemLoad(in, uint64(uint32(in.A)), stack[l-2]+stack[l-1]*(in.A>>32))
			if err != nil {
				return err
			}
			ctr.Add(arch.EvFMul, 1)
			stack[l-3] = math.Float64bits(math.Float64frombits(stack[l-3]) * math.Float64frombits(v))
			stack = stack[:l-2]
		case ir.OpFusedConstI64MulAddLoadF64Add:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLoad, 1)
			l := len(stack)
			v, err := inst.fusedMemLoad(in, uint64(uint32(in.A)), stack[l-2]+stack[l-1]*(in.A>>32))
			if err != nil {
				return err
			}
			ctr.Add(arch.EvFAdd, 1)
			stack[l-3] = math.Float64bits(math.Float64frombits(stack[l-3]) + math.Float64frombits(v))
			stack = stack[:l-2]
		case ir.OpFusedConstI64MulAddLoadF64Sub:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLoad, 1)
			l := len(stack)
			v, err := inst.fusedMemLoad(in, uint64(uint32(in.A)), stack[l-2]+stack[l-1]*(in.A>>32))
			if err != nil {
				return err
			}
			ctr.Add(arch.EvFAdd, 1)
			stack[l-3] = math.Float64bits(math.Float64frombits(stack[l-3]) - math.Float64frombits(v))
			stack = stack[:l-2]
		case ir.OpFusedGetGetI64LtSEqzBr:
			ctr.Add(arch.EvLocal, 2)
			ctr.Add(arch.EvCmp, 2) // i64.lt_s, i32.eqz
			ctr.Add(arch.EvBranch, 1)
			if int64(locals[in.A>>32]) >= int64(locals[uint32(in.A)]) {
				stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}
		case ir.OpFusedF64AddSetI64IncBr:
			ctr.Add(arch.EvFAdd, 1)
			ctr.Add(arch.EvLocal, 2)
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvBranch, 1)
			l := len(stack)
			locals[(in.A>>32)&0xFFFF] = math.Float64bits(math.Float64frombits(stack[l-2]) + math.Float64frombits(stack[l-1]))
			locals[(in.A>>16)&0xFFFF] += (in.A >> 8) & 0xFF
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		case ir.OpFusedF64SubSetI64IncBr:
			ctr.Add(arch.EvFAdd, 1)
			ctr.Add(arch.EvLocal, 2)
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvBranch, 1)
			l := len(stack)
			locals[(in.A>>32)&0xFFFF] = math.Float64bits(math.Float64frombits(stack[l-2]) - math.Float64frombits(stack[l-1]))
			locals[(in.A>>16)&0xFFFF] += (in.A >> 8) & 0xFF
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		case ir.OpFusedGet3I64MulGetAdd:
			ctr.Add(arch.EvLocal, 3)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvALU, 1)
			stack = append(stack, locals[in.A>>48],
				locals[(in.A>>32)&0xFFFF]*locals[(in.A>>16)&0xFFFF]+locals[in.A&0xFFFF])
		case ir.OpFusedConstExtendI64Add:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvConv, 1)
			ctr.Add(arch.EvALU, 1)
			stack[len(stack)-1] += uint64(int64(int32(in.A)))
		case ir.OpFusedConstExtendI64Sub:
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvConv, 1)
			ctr.Add(arch.EvALU, 1)
			stack[len(stack)-1] -= uint64(int64(int32(in.A)))
		case ir.OpFusedI64IncBr:
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvConst, 1)
			ctr.Add(arch.EvALU, 1)
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvBranch, 1)
			locals[ir.FusedBranchAux(in.B)] += in.A >> 8
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		case ir.OpFusedGetI64MulGetAdd:
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvMul, 1)
			ctr.Add(arch.EvLocal, 1)
			ctr.Add(arch.EvALU, 1)
			l := len(stack)
			stack[l-1] = stack[l-1]*locals[in.A>>32] + locals[uint32(in.A)]

		default:
			// Fast path for the hottest pure-value opcodes, inlined so a
			// tight arithmetic loop never leaves the dispatch frame; the
			// event accounting is identical to the numeric ALU's, which
			// the differential suite holds both executors to. Everything
			// else (divisions, truncations, the float library calls)
			// falls through to the shared numeric ALU.
			op := wasm.Opcode(in.Op - ir.OpNumericBase)
			l := len(stack)
			switch op {
			case wasm.OpI64Add:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] += stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Sub:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] -= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64And:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] &= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Or:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] |= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Xor:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] ^= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Shl:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] <<= stack[l-1] & 63
				stack = stack[:l-1]
			case wasm.OpI64ShrS:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(int64(stack[l-2]) >> (stack[l-1] & 63))
				stack = stack[:l-1]
			case wasm.OpI64ShrU:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] >>= stack[l-1] & 63
				stack = stack[:l-1]
			case wasm.OpI64Mul:
				ctr.Add(arch.EvMul, 1)
				stack[l-2] *= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI32Add:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) + uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Sub:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) - uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32And:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) & uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Or:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) | uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Xor:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) ^ uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Mul:
				ctr.Add(arch.EvMul, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) * uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int64(stack[l-2]) < int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LtU:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(stack[l-2] < stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64GtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int64(stack[l-2]) > int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64GeS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int64(stack[l-2]) >= int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LeS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int64(stack[l-2]) <= int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64Eq:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(stack[l-2] == stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64Ne:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(stack[l-2] != stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64Eqz:
				ctr.Add(arch.EvCmp, 1)
				stack[l-1] = b2u(stack[l-1] == 0)
			case wasm.OpI32LtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int32(stack[l-2]) < int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32LtU:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(uint32(stack[l-2]) < uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32GtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int32(stack[l-2]) > int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32GeS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int32(stack[l-2]) >= int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32LeS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int32(stack[l-2]) <= int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Eq:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(uint32(stack[l-2]) == uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Ne:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(uint32(stack[l-2]) != uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Eqz:
				ctr.Add(arch.EvCmp, 1)
				stack[l-1] = b2u(uint32(stack[l-1]) == 0)
			case wasm.OpI32WrapI64:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = uint64(uint32(stack[l-1]))
			case wasm.OpI64ExtendI32S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = uint64(int64(int32(stack[l-1])))
			case wasm.OpI64ExtendI32U:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = uint64(uint32(stack[l-1]))
			case wasm.OpF64ConvertI64S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = math.Float64bits(float64(int64(stack[l-1])))
			case wasm.OpF64ConvertI32S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = math.Float64bits(float64(int32(stack[l-1])))
			case wasm.OpF64Add:
				ctr.Add(arch.EvFAdd, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) + math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpF64Sub:
				ctr.Add(arch.EvFAdd, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) - math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpF64Mul:
				ctr.Add(arch.EvFMul, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) * math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			default:
				n, err := inst.numeric(op, stack, l)
				if err != nil {
					return err
				}
				stack = stack[:n]
			}
		}
		pc++
		continue

	fusedALU:
		// Shared ALU-constituent executor for the fused superinstructions:
		// one inline copy of the hottest constituents (the polybench
		// kernels' top ALU ops) keyed by their dense aluKind so the switch
		// is a jump table, with the out-of-line executor (kind 0) as the
		// fallback for the rest. Event charges are copied from the
		// dispatch fast path above, so fused streams stay event-identical
		// to unfused ones. The ALU-first superinstructions then run their
		// second constituent in the switch below; ALU-last ones retire
		// directly.
		{
			l := len(stack)
			switch aluKind[uint8(aluOp)] {
			case aluI32Add:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) + uint32(stack[l-1]))
				stack = stack[:l-1]
			case aluI64Add:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] += stack[l-1]
				stack = stack[:l-1]
			case aluI32Mul:
				ctr.Add(arch.EvMul, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) * uint32(stack[l-1]))
				stack = stack[:l-1]
			case aluI64Mul:
				ctr.Add(arch.EvMul, 1)
				stack[l-2] *= stack[l-1]
				stack = stack[:l-1]
			case aluF64Add:
				ctr.Add(arch.EvFAdd, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) + math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			case aluF64Mul:
				ctr.Add(arch.EvFMul, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) * math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			case aluI32LtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int32(stack[l-2]) < int32(stack[l-1]))
				stack = stack[:l-1]
			case aluI64LtS:
				ctr.Add(arch.EvCmp, 1)
				stack[l-2] = b2u(int64(stack[l-2]) < int64(stack[l-1]))
				stack = stack[:l-1]
			case aluI32Eqz:
				ctr.Add(arch.EvCmp, 1)
				stack[l-1] = b2u(uint32(stack[l-1]) == 0)
			case aluI64ExtendI32S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = uint64(int64(int32(stack[l-1])))
			case aluI32Sub:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] = uint64(uint32(stack[l-2]) - uint32(stack[l-1]))
				stack = stack[:l-1]
			case aluI64Sub:
				ctr.Add(arch.EvALU, 1)
				stack[l-2] -= stack[l-1]
				stack = stack[:l-1]
			case aluF64Sub:
				ctr.Add(arch.EvFAdd, 1)
				stack[l-2] = math.Float64bits(math.Float64frombits(stack[l-2]) - math.Float64frombits(stack[l-1]))
				stack = stack[:l-1]
			case aluF64ConvertI32S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = math.Float64bits(float64(int32(stack[l-1])))
			case aluF64ConvertI64S:
				ctr.Add(arch.EvConv, 1)
				stack[l-1] = math.Float64bits(float64(int64(stack[l-1])))
			default:
				n, err := inst.numeric(aluOp, stack, l)
				if err != nil {
					return err
				}
				stack = stack[:n]
			}
		}
		if aluNext != 0 {
			// An ALU of a multi-ALU superinstruction just ran and more
			// are pending; stage the constituents that sit between it and
			// the next one, promote that one, and loop back. aluNext is
			// zero after the last ALU, so the op then retires through the
			// switch below.
			switch in.Op {
			case ir.OpFusedGetALUGetALU:
				ctr.Add(arch.EvLocal, 1)
				stack = append(stack, locals[uint32(in.A)])
			case ir.OpFusedGet3ALUGetALU:
				ctr.Add(arch.EvLocal, 1)
				stack = append(stack, locals[in.A&0xFFFF])
			case ir.OpFusedALUSetIncBr:
				// set x; get y; const c — retire the reduction, then set
				// up the induction-variable bump for the second ALU.
				ctr.Add(arch.EvLocal, 2)
				ctr.Add(arch.EvConst, 1)
				locals[(in.A>>32)&0xFFFF] = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				stack = append(stack, locals[(in.A>>16)&0xFFFF], (in.A>>8)&0xFF)
			case ir.OpFusedConstALUALULoadALU:
				// Nothing sits between the two address ALUs; the load
				// constituent (offset in A's low half, the high half is
				// the already-pushed constant) sits before the last one.
				if aluNext <= 0xFF {
					ctr.Add(arch.EvLoad, 1)
					v, err := inst.fusedMemLoad(in, uint64(uint32(in.A)), stack[len(stack)-1])
					if err != nil {
						return err
					}
					stack[len(stack)-1] = v
				}
			}
			aluOp, aluNext = wasm.Opcode(aluNext&0xFF), aluNext>>8
			goto fusedALU
		}
		switch in.Op {
		case ir.OpFusedALUSet:
			ctr.Add(arch.EvLocal, 1)
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case ir.OpFusedALULoad:
			ctr.Add(arch.EvLoad, 1)
			if ir.FusedMemVariant(in.B) == ir.OpLoadG32G {
				addr := uint64(uint32(stack[len(stack)-1])) + in.A
				stack[len(stack)-1] = extendLoad(ir.FusedMemOp(in.B),
					readScalar(inst.gmem, addr, ir.FusedMemSize(in.B)))
			} else {
				v, err := inst.fusedMemLoad(in, in.A, stack[len(stack)-1])
				if err != nil {
					return err
				}
				stack[len(stack)-1] = v
			}
		case ir.OpFusedALUStore:
			ctr.Add(arch.EvStore, 1)
			if ir.FusedMemVariant(in.B) == ir.OpStoreG32G {
				// Guard-region store with the all-or-nothing probe; see
				// OpStoreG32G.
				sz := ir.FusedMemSize(in.B)
				addr := uint64(uint32(stack[len(stack)-2])) + in.A
				gm := inst.gmem
				guardProbeSink = gm[addr+sz-1]
				inst.dirty.mark(addr, sz)
				writeScalar(gm, addr, sz, stack[len(stack)-1])
			} else if err := inst.fusedMemStore(in, stack[len(stack)-2], stack[len(stack)-1]); err != nil {
				return err
			}
			stack = stack[:len(stack)-2]
		case ir.OpFusedCmpBrIf:
			ctr.Add(arch.EvBranch, 1)
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) != 0 {
				stack = branchRepair(stack, ir.BranchKeep(in.A), ir.BranchArity(in.A))
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}
		case ir.OpFusedCmpBrIfZ:
			ctr.Add(arch.EvBranch, 1)
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) == 0 {
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}
		case ir.OpFusedCmpEqzBrIf:
			ctr.Add(arch.EvCmp, 1) // the i32.eqz constituent
			eq := uint32(stack[len(stack)-1]) == 0
			stack = stack[:len(stack)-1]
			ctr.Add(arch.EvBranch, 1)
			if eq {
				stack = branchRepair(stack, ir.BranchKeep(in.A), ir.BranchArity(in.A))
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}
		case ir.OpFusedGetGetCmpEqzBr:
			ctr.Add(arch.EvCmp, 1) // the i32.eqz constituent
			eq := uint32(stack[len(stack)-1]) == 0
			stack = stack[:len(stack)-1]
			ctr.Add(arch.EvBranch, 1)
			if eq {
				// Zero repair pack (the fuse pass only matches it):
				// keep=0, arity=0 truncates the operand stack.
				stack = stack[:0]
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil {
					if err := mtr.check(ctr); err != nil {
						return err
					}
				}
				continue
			}
		case ir.OpFusedIncBr:
			ctr.Add(arch.EvLocal, 1)
			locals[ir.FusedBranchAux(in.B)] = stack[len(stack)-1]
			ctr.Add(arch.EvBranch, 1)
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		case ir.OpFusedALUSetIncBr:
			ctr.Add(arch.EvLocal, 1)
			locals[(in.A>>16)&0xFFFF] = stack[len(stack)-1]
			ctr.Add(arch.EvBranch, 1)
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil {
				if err := mtr.check(ctr); err != nil {
					return err
				}
			}
			continue
		}
		pc++
		continue

	call:
		// Interrupt checkpoint at every call entry, host and guest alike,
		// so cancellation reaches even loop-free recursion.
		if mtr != nil {
			if err := mtr.check(ctr); err != nil {
				return err
			}
		}
		{
			top := &inst.frames[len(inst.frames)-1]
			sbTop := top.base + top.fn.StackBase()
			if callIdx < len(inst.imports) {
				// Host crossing. Publish the arena top so a re-entrant
				// HostContext.Call opens its barrier frame above this one,
				// and hand the host the argument slots in place — valid
				// for the duration of the call, like the HostContext
				// itself.
				if inst.depth >= inst.maxCallDepth {
					return newTrap(TrapStackOverflow, "frame %d exceeds depth limit %d",
						inst.depth+1, inst.maxCallDepth)
				}
				inst.depth++
				inst.arenaTop = sbTop + len(stack)
				args := stack[len(stack)-callN : len(stack) : len(stack)]
				res, err := inst.callHost(callIdx, args)
				inst.depth--
				if err != nil {
					return err
				}
				if inst.features.SpectreHarden {
					// Returning from the host re-enters the sandbox: same
					// BTB flush as the entry in invoke, so host-trained
					// predictor state never survives into guest code.
					ctr.Add(arch.EvBTBFlush, 1)
				}
				// A re-entrant call may have grown the arena; re-derive
				// the views from inst.vals before touching the stack.
				height := len(stack) - callN
				if len(res) > cap(stack)-height {
					return &Trap{Code: TrapHost, Msg: fmt.Sprintf(
						"host function %d returned %d values, caller frame has room for %d",
						callIdx, len(res), cap(stack)-height)}
				}
				locals = inst.vals[top.base:sbTop:sbTop]
				stack = inst.vals[sbTop : sbTop+height : top.base+top.fn.FrameSize]
				stack = append(stack, res...)
				pc++
				continue
			}
			di := callIdx - len(inst.imports)
			if di >= len(inst.prog.Funcs) {
				return newTrap(TrapIndirectCall, "function index %d out of range", callIdx)
			}
			callee := &inst.prog.Funcs[di]
			// The callee's parameter slots are the caller's top callN
			// operand-stack values, in place: no argument copy.
			newBase := sbTop + len(stack) - callN
			top.pc = pc + 1
			// Inline push fast path: bounds hold and the frame ends below
			// the arena's high-water mark — the steady state for every call
			// after the first at a given depth. pushGuestFrame handles
			// growth, the mark and traps.
			nsb := newBase + callee.StackBase()
			need := newBase + callee.FrameSize
			if inst.depth < inst.maxCallDepth &&
				need <= inst.valsHigh && uint64(need) <= inst.maxStackWords {
				lb := newBase + callee.NumParams
				clear(inst.vals[lb : lb+callee.NumLocals])
				inst.depth++
				inst.frames = append(inst.frames, frameRec{fn: callee, base: newBase})
			} else if err := inst.pushGuestFrame(callee, newBase); err != nil {
				return err
			}
			locals = inst.vals[newBase:nsb:nsb]
			stack = inst.vals[nsb:nsb:need]
			code = callee.Code
			pc = 0
			continue
		}

	ret:
		{
			// Slide the results down over the dead frame — they land
			// exactly on the caller's operand-stack top, where the call's
			// arguments used to be.
			arity := int(in.A)
			nf := len(inst.frames) - 1
			deadBase := inst.frames[nf].base
			if arity == 1 {
				// The overwhelmingly common single-result return skips the
				// memmove.
				inst.vals[deadBase] = stack[len(stack)-1]
			} else if arity > 0 {
				copy(inst.vals[deadBase:deadBase+arity], stack[len(stack)-arity:])
			}
			inst.depth--
			inst.frames = inst.frames[:nf]
			if nf == barrier {
				return nil
			}
			caller := &inst.frames[nf-1]
			csb := caller.base + caller.fn.StackBase()
			height := deadBase + arity - csb
			locals = inst.vals[caller.base:csb:csb]
			stack = inst.vals[csb : csb+height : caller.base+caller.fn.FrameSize]
			code = caller.fn.Code
			pc = caller.pc
			continue
		}
	}
}

// b2u is the wasm boolean encoding: 1 for true, 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
