package exec

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cage/internal/arch"
	"cage/internal/ir"
	"cage/internal/mte"
	"cage/internal/pac"
	"cage/internal/ptrlayout"
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
// restores, so steady-state execution never re-grows.
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

// run drives the frame machine until the activation that entered at
// barrier returns: one flat dispatch loop over the pre-resolved
// instruction stream of whichever frame is on top. There is no control
// stack and no end/else matching — branches carry absolute target PCs
// and their stack repair. The cases carry semantics only: the region
// label below counts each entry into a straight-line region, and drain
// prices the counts from the table ir.BuildCharges built, so one
// execution can still be priced on all three cores afterwards.
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
	// of that checkpoint is a single never-taken nil test; a metered one
	// calls check only when the inlined quiet test fails.
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
	// The shared access blocks' operands, set by every memory
	// constituent before it jumps there: the index and memarg offset of
	// a load, and for both directions the memory pack (PackFusedMem:
	// size, specialized variant, wasm opcode). A store's index and value
	// are the top two stack slots and its offset in.A.
	var memIdx, memOff, memB uint64
	visits := inst.visits

region:
	// Every way into a straight-line region comes here — a function's
	// entry, a taken branch's target after its meter check, a not-taken
	// branch's fallthrough, a call's continuation — and counts one entry
	// into the region through the next control transfer. Its events are
	// priced from the program's table when something is about to read
	// the counter (drain; doc.go, "Events"). A region's first entry
	// since the last drain lists it, within the list's capacity.
	{
		r := code[pc].Charge
		if visits[r] == 0 {
			n := len(inst.visited)
			inst.visited = inst.visited[:n+1]
			inst.visited[n] = r
		}
		visits[r]++
	}
	for {
		in := &code[pc]
		// aluOp feeds the fusedALU block at the bottom of the loop, the
		// one inline ALU: unfused numerics and the shape-generic
		// ALU-carrying superinstructions converge there. aluNext holds
		// the ALUs of a multi-ALU superinstruction that are still to run,
		// the next one in the low byte. Both live for one dispatch, so
		// aluNext is zero at every entry into the main switch by scope,
		// and the compiler carries neither across the back-edge: declared
		// per run, the pair costs two reloads per instruction.
		var aluOp wasm.Opcode
		var aluNext uint32
		switch in.Op {
		case ir.OpUnreachable:
			return newTrap(TrapUnreachable, "at pc %d", pc)

		case ir.OpGoto:
			pc = int(in.B)
			goto region

		// A taken branch applies its stack repair in place — carry the
		// top n values down to height keep; a loop back-edge carries none,
		// so its repair is one truncation — and is an interrupt
		// checkpoint. quiet, inlined, answers for a meter that check
		// would pass without looking further, so only a fuel budget, an
		// ended context or a nested call pays the call. Every branch
		// below, fused or not, repeats this inline: one shared block for
		// it cost gemm 12 %.
		case ir.OpBr:
			keep, n := ir.BranchKeep(in.A), ir.BranchArity(in.A)
			if n != 0 {
				copy(stack[keep:keep+n], stack[len(stack)-n:])
			}
			stack = stack[:keep+n]
			pc = int(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region

		case ir.OpBrIf:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) != 0 {
				keep, n := ir.BranchKeep(in.A), ir.BranchArity(in.A)
				if n != 0 {
					copy(stack[keep:keep+n], stack[len(stack)-n:])
				}
				stack = stack[:keep+n]
				pc = int(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region

		case ir.OpBrIfZ:
			// Taken BrIfZ is a branch like any other and therefore an
			// interrupt checkpoint; skipping it would let a loop whose
			// only taken edges are if-conditionals outrun WithTimeout and
			// WithFuel. It repairs nothing: the height stays.
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) == 0 {
				pc = int(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region

		case ir.OpBrTable:
			i := uint32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			ts := in.Targets
			t := ts[len(ts)-1] // default
			if uint64(i) < uint64(len(ts)-1) {
				t = ts[i]
			}
			keep, n := int(t.Keep), int(t.Arity)
			if n != 0 {
				copy(stack[keep:keep+n], stack[len(stack)-n:])
			}
			stack = stack[:keep+n]
			pc = int(t.PC)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region

		case ir.OpReturn, ir.OpRetEnd:
			goto ret

		case ir.OpFence, ir.OpPtrSignNop, ir.OpPtrAuthNop:
			// Events only: the hardened lowering's speculation barrier,
			// priced as a pipeline drain, and the PAC instructions of the
			// software fallback, which the timing model still prices.

		case ir.OpCall:
			callIdx, callN = int(in.A), int(in.B)
			goto call

		case ir.OpCallIndirect:
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
			if uint32(stack[len(stack)-1]) == 0 {
				stack[len(stack)-3] = stack[len(stack)-2]
			}
			stack = stack[:len(stack)-2]

		case ir.OpLocalGet:
			stack = append(stack, locals[in.A])
		case ir.OpLocalSet:
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case ir.OpLocalTee:
			locals[in.A] = stack[len(stack)-1]

		case ir.OpGlobalGet:
			stack = append(stack, inst.globals[in.A])
		case ir.OpGlobalSet:
			inst.globals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		case ir.OpConst:
			stack = append(stack, in.A)

		case ir.OpMemorySize:
			stack = append(stack, inst.memSize/wasm.PageSize)
		case ir.OpMemoryGrow:
			stack[len(stack)-1] = inst.memoryGrow(stack[len(stack)-1])
		case ir.OpMemoryFill:
			n, err := inst.memoryFill(stack)
			if err != nil {
				return inst.trapped(code, pc, 0, err)
			}
			stack = stack[:n]
		case ir.OpMemoryCopy:
			n, err := inst.memoryCopy(stack)
			if err != nil {
				return inst.trapped(code, pc, 0, err)
			}
			stack = stack[:n]

		case ir.OpSegmentNew:
			length := stack[len(stack)-1]
			ptr := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			tagged, err := inst.segmentNew(ptr, length, in.A)
			if err != nil {
				return inst.trapped(code, pc, 0, err)
			}
			stack = append(stack, tagged)
		case ir.OpSegmentSetTag:
			length := stack[len(stack)-1]
			tagged := stack[len(stack)-2]
			ptr := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if err := inst.segmentSetTag(ptr, tagged, length, in.A); err != nil {
				return inst.trapped(code, pc, 0, err)
			}
		case ir.OpSegmentFree:
			length := stack[len(stack)-1]
			tagged := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if err := inst.segmentFree(tagged, length, in.A); err != nil {
				return inst.trapped(code, pc, 0, err)
			}

		case ir.OpPtrSign:
			stack[len(stack)-1] = inst.keys.Sign(stack[len(stack)-1])
		case ir.OpPtrAuth:
			v, err := inst.keys.Auth(stack[len(stack)-1])
			if err != nil {
				if errors.Is(err, pac.ErrAuthFailed) {
					err = newTrap(TrapAuthFailure, "i64.pointer_auth at pc %d", pc)
				}
				return inst.trapped(code, pc, 0, err)
			}
			stack[len(stack)-1] = v

		// Loads and stores, specialized per address-translation mode at
		// lower time: the operands go to the shared access blocks at the
		// bottom of the loop, which every memory constituent of a fused
		// op reaches too.
		case ir.OpLoadG32, ir.OpLoadG32NC, ir.OpLoadB64, ir.OpLoadB64NC, ir.OpLoadB64Tag,
			ir.OpLoadB64NCTag, ir.OpLoadMTE, ir.OpLoadMTENC, ir.OpLoadG32G:
			memIdx, memOff = stack[len(stack)-1], in.A
			memB = ir.PackFusedMem(ir.MemSize(in.B), in.Op, 0, ir.MemOp(in.B))
			stack = stack[:len(stack)-1]
			goto load
		case ir.OpStoreG32, ir.OpStoreG32NC, ir.OpStoreB64, ir.OpStoreB64NC, ir.OpStoreB64Tag,
			ir.OpStoreB64NCTag, ir.OpStoreMTE, ir.OpStoreMTENC, ir.OpStoreG32G:
			memB = ir.PackFusedMem(ir.MemSize(in.B), in.Op, 0, ir.MemOp(in.B))
			goto store

		// Fused superinstructions (internal/fuse): each case executes its
		// constituents in order with the constituents' exact trap points,
		// and its events are its constituents' in the region's charge, so
		// a fused program is observationally identical to its unfused
		// twin — results, traps, and event stream — and only the dispatch
		// count differs. Operand-stack peaks are also
		// identical (the constituents run one by one), so the frame's
		// precomputed MaxStack still bounds every append below. The
		// ALU-carrying cases converge on the fusedALU block at the bottom
		// of the loop, and the memory constituents on the load and store
		// blocks, which run the constituent without leaving the dispatch
		// frame.
		case ir.OpFusedGetGet:
			stack = append(stack, locals[in.A], locals[in.B])
		case ir.OpFusedGet4:
			stack = append(stack, locals[in.A>>48], locals[(in.A>>32)&0xFFFF],
				locals[(in.A>>16)&0xFFFF], locals[in.A&0xFFFF])
		case ir.OpFusedGetConst:
			stack = append(stack, locals[in.A], in.B)
		case ir.OpFusedConstALU:
			stack = append(stack, in.A)
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetALU:
			stack = append(stack, locals[in.A])
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetGetALU:
			stack = append(stack, locals[in.A>>32], locals[uint32(in.A)])
			aluOp = wasm.Opcode(in.B)
			goto fusedALU
		case ir.OpFusedGetConstALU:
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
			locals[in.A] = stack[len(stack)-1]
			stack[len(stack)-1] = locals[in.B]
		case ir.OpFusedSetBr:
			locals[ir.FusedBranchAux(in.B)] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			keep, n := ir.BranchKeep(in.A), ir.BranchArity(in.A)
			if n != 0 {
				copy(stack[keep:keep+n], stack[len(stack)-n:])
			}
			stack = stack[:keep+n]
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		case ir.OpFusedCmpBrIf, ir.OpFusedCmpBrIfZ, ir.OpFusedCmpEqzBrIf:
			aluOp = wasm.Opcode(ir.FusedBranchAux(in.B))
			goto fusedALU
		case ir.OpFusedLoadALU:
			// Load constituent first, then its ALU.
			memIdx, memOff, memB = stack[len(stack)-1], in.A, in.B
			stack = stack[:len(stack)-1]
			goto load
		case ir.OpFusedALULoad, ir.OpFusedALUStore:
			aluOp = ir.FusedMemALU(in.B)
			goto fusedALU
		case ir.OpFusedConstALUALU:
			stack = append(stack, in.A)
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedGetALUGetALU:
			stack = append(stack, locals[in.A>>32])
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedGetGetCmpEqzBr:
			stack = append(stack, locals[in.A>>32], locals[uint32(in.A)])
			aluOp = wasm.Opcode(ir.FusedBranchAux(in.B))
			goto fusedALU
		case ir.OpFusedIncBr:
			stack = append(stack, locals[ir.FusedBranchAux(in.B)], in.A>>8)
			aluOp = wasm.Opcode(in.A & 0xFF)
			goto fusedALU
		case ir.OpFusedGet3ALUGetALU:
			stack = append(stack, locals[in.A>>48], locals[(in.A>>32)&0xFFFF],
				locals[(in.A>>16)&0xFFFF])
			aluOp = wasm.Opcode(in.B & 0xFF)
			aluNext = uint32(in.B>>8) & 0xFF
			goto fusedALU
		case ir.OpFusedConstALUALULoadALU:
			stack = append(stack, in.A>>32)
			aluOp = wasm.Opcode((in.B >> 32) & 0xFF)
			aluNext = uint32(in.B>>40)&0xFF | uint32(ir.FusedMemALU(in.B))<<8
			goto fusedALU
		case ir.OpFusedALUSetIncBr:
			aluOp = wasm.Opcode(in.A >> 48)
			aluNext = uint32(in.A) & 0xFF
			goto fusedALU

		// Indexed loads: an i64 address built from locals and the scale
		// constant, then the load block (the unfused load's checks and
		// trap), then the f64.mul or f64.add where the opcode names one.
		case ir.OpFusedIdx1Load, ir.OpFusedIdx1LoadF64Mul, ir.OpFusedIdx1LoadF64Add:
			memIdx = locals[in.A>>48] + locals[(in.A>>32)&0xFFFF]*ir.IdxScale(in.B)
			memOff, memB = ir.IdxOffset(in.B), in.B
			goto load
		case ir.OpFusedIdx2Load, ir.OpFusedIdx2LoadF64Mul:
			memIdx = locals[in.A>>48] +
				(locals[(in.A>>32)&0xFFFF]*locals[(in.A>>16)&0xFFFF]+locals[in.A&0xFFFF])*ir.IdxScale(in.B)
			memOff, memB = ir.IdxOffset(in.B), in.B
			goto load
		case ir.OpFusedIdx3LoadF64Mul:
			memIdx = locals[in.A>>48] + locals[(in.A>>32)&0xFFFF]*locals[(in.A>>16)&0xFFFF]*ir.IdxScale(in.B)
			memOff, memB = ir.IdxOffset(in.B), in.B
			goto load
		// The idx1±k forms index with i ± k (ir.IdxDelta): the
		// constituents' i64.extend_i32_s and i64.add|sub, in the same wrap
		// arithmetic.
		case ir.OpFusedIdx1KLoad, ir.OpFusedIdx1KLoadF64Add:
			memIdx = locals[in.A>>48] +
				(locals[(in.A>>32)&0xFFFF]+ir.IdxDelta(in.A, ir.FusedMemALU(in.B)))*ir.IdxScale(in.B)
			memOff, memB = ir.IdxOffset(in.B), in.B
			goto load
		case ir.OpFusedIdx1:
			stack = append(stack, locals[in.A>>48]+locals[(in.A>>32)&0xFFFF]*ir.IdxScale(in.B))
		case ir.OpFusedGetGetKI64LtSEqzBr:
			if int64(locals[in.A>>48]) >= int64(locals[(in.A>>32)&0xFFFF]+
				ir.IdxDelta(in.A, wasm.Opcode(ir.FusedBranchAux(in.B)))) {
				stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region

		// Idiom superinstructions (ir/form.go): a generic shape above
		// with its ALU constituents named in the opcode, so the case is
		// straight-line code — no trip through fusedALU, no switch on an
		// ALU opcode. Operands go from locals, immediates and the entry
		// stack through Go locals to the final stack, and a memory
		// constituent is the shapes' load block, whose variant stays a
		// run-time field. Immediates are the shape's with the ALU fields
		// zero.
		case ir.OpFusedConstI64MulAdd:
			l := len(stack)
			stack[l-2] += stack[l-1] * in.A
			stack = stack[:l-1]
		case ir.OpFusedConstI64MulAddLoadF64Mul, ir.OpFusedConstI64MulAddLoadF64Add,
			ir.OpFusedConstI64MulAddLoadF64Sub:
			l := len(stack)
			memIdx, memOff, memB = stack[l-2]+stack[l-1]*(in.A>>32), uint64(uint32(in.A)), in.B
			stack = stack[:l-2]
			goto load
		case ir.OpFusedGetGetI64LtSEqzBr:
			if int64(locals[in.A>>32]) >= int64(locals[uint32(in.A)]) {
				stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region
		case ir.OpFusedF64AddSetI64IncBr:
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			r := math.Float64frombits(x) + math.Float64frombits(y)
			v := math.Float64bits(r)
			if r != r {
				v = f64NaN(x, y, v)
			}
			locals[(in.A>>32)&0xFFFF] = v
			locals[(in.A>>16)&0xFFFF] += (in.A >> 8) & 0xFF
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		case ir.OpFusedF64SubSetI64IncBr:
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			r := math.Float64frombits(x) - math.Float64frombits(y)
			v := math.Float64bits(r)
			if r != r {
				v = f64NaN(x, y, v)
			}
			locals[(in.A>>32)&0xFFFF] = v
			locals[(in.A>>16)&0xFFFF] += (in.A >> 8) & 0xFF
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		case ir.OpFusedGet3I64MulGetAdd:
			stack = append(stack, locals[in.A>>48],
				locals[(in.A>>32)&0xFFFF]*locals[(in.A>>16)&0xFFFF]+locals[in.A&0xFFFF])
		case ir.OpFusedConstExtendI64Add:
			stack[len(stack)-1] += uint64(int64(int32(in.A)))
		case ir.OpFusedConstExtendI64Sub:
			stack[len(stack)-1] -= uint64(int64(int32(in.A)))
		case ir.OpFusedI64IncBr:
			locals[ir.FusedBranchAux(in.B)] += in.A >> 8
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		case ir.OpFusedGetI64MulGetAdd:
			l := len(stack)
			stack[l-1] = stack[l-1]*locals[in.A>>32] + locals[uint32(in.A)]

		default:
			// Every unfused numeric opcode runs in the fusedALU block, the
			// one inline ALU; it finds aluNext zero and no tail case for an
			// unfused op, so the op retires there.
			aluOp = wasm.Opcode(in.Op - ir.OpNumericBase)
			goto fusedALU
		}
		pc++
		continue

	fusedALU:
		// The one inline ALU, for unfused numeric instructions and the
		// ALU constituents of the shape-generic superinstructions alike:
		// the hottest pure-value opcodes switch on the wasm opcode itself
		// (dense enough that Go compiles it to a jump table), and the rest
		// — divisions, truncations, the float library calls — fall back
		// to the shared numeric ALU, whose trap finds which constituent it
		// was from the ALUs still queued in aluNext (0 for an unfused op).
		// The ALU-first superinstructions then run their second
		// constituent in the switch below; ALU-last ones and unfused ops
		// retire directly.
		{
			l := len(stack)
			switch aluOp {
			case wasm.OpI64Add:
				stack[l-2] += stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Sub:
				stack[l-2] -= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64And:
				stack[l-2] &= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Or:
				stack[l-2] |= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Xor:
				stack[l-2] ^= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI64Shl:
				stack[l-2] <<= stack[l-1] & 63
				stack = stack[:l-1]
			case wasm.OpI64ShrS:
				stack[l-2] = uint64(int64(stack[l-2]) >> (stack[l-1] & 63))
				stack = stack[:l-1]
			case wasm.OpI64ShrU:
				stack[l-2] >>= stack[l-1] & 63
				stack = stack[:l-1]
			case wasm.OpI64Mul:
				stack[l-2] *= stack[l-1]
				stack = stack[:l-1]
			case wasm.OpI32Add:
				stack[l-2] = uint64(uint32(stack[l-2]) + uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Sub:
				stack[l-2] = uint64(uint32(stack[l-2]) - uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32And:
				stack[l-2] = uint64(uint32(stack[l-2]) & uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Or:
				stack[l-2] = uint64(uint32(stack[l-2]) | uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Xor:
				stack[l-2] = uint64(uint32(stack[l-2]) ^ uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Mul:
				stack[l-2] = uint64(uint32(stack[l-2]) * uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LtS:
				stack[l-2] = b2u(int64(stack[l-2]) < int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LtU:
				stack[l-2] = b2u(stack[l-2] < stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64GtS:
				stack[l-2] = b2u(int64(stack[l-2]) > int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64GeS:
				stack[l-2] = b2u(int64(stack[l-2]) >= int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64LeS:
				stack[l-2] = b2u(int64(stack[l-2]) <= int64(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI64Eq:
				stack[l-2] = b2u(stack[l-2] == stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64Ne:
				stack[l-2] = b2u(stack[l-2] != stack[l-1])
				stack = stack[:l-1]
			case wasm.OpI64Eqz:
				stack[l-1] = b2u(stack[l-1] == 0)
			case wasm.OpI32LtS:
				stack[l-2] = b2u(int32(stack[l-2]) < int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32LtU:
				stack[l-2] = b2u(uint32(stack[l-2]) < uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32GtS:
				stack[l-2] = b2u(int32(stack[l-2]) > int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32GeS:
				stack[l-2] = b2u(int32(stack[l-2]) >= int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32LeS:
				stack[l-2] = b2u(int32(stack[l-2]) <= int32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Eq:
				stack[l-2] = b2u(uint32(stack[l-2]) == uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Ne:
				stack[l-2] = b2u(uint32(stack[l-2]) != uint32(stack[l-1]))
				stack = stack[:l-1]
			case wasm.OpI32Eqz:
				stack[l-1] = b2u(uint32(stack[l-1]) == 0)
			case wasm.OpI32WrapI64:
				stack[l-1] = uint64(uint32(stack[l-1]))
			case wasm.OpI64ExtendI32S:
				stack[l-1] = uint64(int64(int32(stack[l-1])))
			case wasm.OpI64ExtendI32U:
				stack[l-1] = uint64(uint32(stack[l-1]))
			case wasm.OpF64ConvertI64S:
				stack[l-1] = math.Float64bits(float64(int64(stack[l-1])))
			case wasm.OpF64ConvertI32S:
				stack[l-1] = math.Float64bits(float64(int32(stack[l-1])))
			case wasm.OpF64Add:
				x, y := stack[l-2], stack[l-1]
				r := math.Float64frombits(x) + math.Float64frombits(y)
				stack[l-2] = math.Float64bits(r)
				if r != r {
					stack[l-2] = f64NaN(x, y, stack[l-2])
				}
				stack = stack[:l-1]
			case wasm.OpF64Sub:
				x, y := stack[l-2], stack[l-1]
				r := math.Float64frombits(x) - math.Float64frombits(y)
				stack[l-2] = math.Float64bits(r)
				if r != r {
					stack[l-2] = f64NaN(x, y, stack[l-2])
				}
				stack = stack[:l-1]
			case wasm.OpF64Mul:
				x, y := stack[l-2], stack[l-1]
				r := math.Float64frombits(x) * math.Float64frombits(y)
				stack[l-2] = math.Float64bits(r)
				if r != r {
					stack[l-2] = f64NaN(x, y, stack[l-2])
				}
				stack = stack[:l-1]
			default:
				n, err := inst.numeric(aluOp, stack, l)
				if err != nil {
					return inst.trapped(code, pc, aluConstituent(in, aluNext), err)
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
				stack = append(stack, locals[uint32(in.A)])
			case ir.OpFusedGet3ALUGetALU:
				stack = append(stack, locals[in.A&0xFFFF])
			case ir.OpFusedALUSetIncBr:
				// set x; get y; const c — retire the reduction, then set
				// up the induction-variable bump for the second ALU.
				locals[(in.A>>32)&0xFFFF] = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				stack = append(stack, locals[(in.A>>16)&0xFFFF], (in.A>>8)&0xFF)
			case ir.OpFusedConstALUALULoadALU:
				// Nothing sits between the two address ALUs; the load
				// constituent (offset in A's low half, the high half is
				// the already-pushed constant) sits before the last one.
				if aluNext <= 0xFF {
					memIdx, memOff, memB = stack[len(stack)-1], uint64(uint32(in.A)), in.B
					aluOp, aluNext = wasm.Opcode(aluNext), 0
					stack = stack[:len(stack)-1]
					goto load
				}
			}
			aluOp, aluNext = wasm.Opcode(aluNext&0xFF), aluNext>>8
			goto fusedALU
		}
		switch in.Op {
		case ir.OpFusedALUSet:
			locals[in.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case ir.OpFusedALULoad:
			memIdx, memOff, memB = stack[len(stack)-1], in.A, in.B
			stack = stack[:len(stack)-1]
			goto load
		case ir.OpFusedALUStore:
			memB = in.B
			goto store
		case ir.OpFusedCmpBrIf:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) != 0 {
				keep, n := ir.BranchKeep(in.A), ir.BranchArity(in.A)
				if n != 0 {
					copy(stack[keep:keep+n], stack[len(stack)-n:])
				}
				stack = stack[:keep+n]
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region
		case ir.OpFusedCmpBrIfZ:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) == 0 {
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region
		case ir.OpFusedCmpEqzBrIf:
			eq := uint32(stack[len(stack)-1]) == 0
			stack = stack[:len(stack)-1]
			if eq {
				keep, n := ir.BranchKeep(in.A), ir.BranchArity(in.A)
				if n != 0 {
					copy(stack[keep:keep+n], stack[len(stack)-n:])
				}
				stack = stack[:keep+n]
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region
		case ir.OpFusedGetGetCmpEqzBr:
			eq := uint32(stack[len(stack)-1]) == 0
			stack = stack[:len(stack)-1]
			if eq {
				// Zero repair pack (the fuse pass only matches it):
				// keep=0, arity=0 truncates the operand stack.
				stack = stack[:0]
				pc = ir.FusedBranchTarget(in.B)
				if mtr != nil && !mtr.quiet() {
					if err := inst.checkpoint(mtr); err != nil {
						return err
					}
				}
				goto region
			}
			pc++
			goto region
		case ir.OpFusedIncBr:
			locals[ir.FusedBranchAux(in.B)] = stack[len(stack)-1]
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		case ir.OpFusedALUSetIncBr:
			locals[(in.A>>16)&0xFFFF] = stack[len(stack)-1]
			stack = stack[:0] // zero repair pack; see OpFusedGetGetCmpEqzBr
			pc = ir.FusedBranchTarget(in.B)
			if mtr != nil && !mtr.quiet() {
				if err := inst.checkpoint(mtr); err != nil {
					return err
				}
			}
			goto region
		}
		pc++
		continue

	load:
		// Shared load block: the checked read of every load constituent,
		// then what its opcode does with the value. The accepting case of
		// the hot variants — an in-bounds 4- or 8-byte access whose
		// granule tags match — is open-coded here, because run is too big
		// for the Go inliner to put any helper of real size inside it
		// (doc.go, "Dispatch"). Everything else — a miss, a trap, another
		// width, the NC variants — is fusedMemLoad, the address
		// functions' one definition of semantics and traps. A guard-region
		// access publishes its pc first: its trap is an MMU fault, which
		// leaves run by panic (runProtected).
		{
			sz, mem := ir.FusedMemSize(memB), inst.mem
			var addr, v uint64
			if sz < 4 {
				goto loadCall
			}
			switch ir.FusedMemVariant(memB) {
			case ir.OpLoadMTE:
				full := inst.heapBase + memIdx&inst.policy.IndexMask + memOff
				addr = full & ptrlayout.AddressMask
				tags, tag, last := inst.tags.Granules(), ptrlayout.Tag(full), (addr+sz-1)/mte.GranuleSize
				if addr+sz <= uint64(len(mem)) && last < uint64(len(tags)) &&
					tags[addr/mte.GranuleSize] == tag && tags[last] == tag {
					goto loadRead
				}
			case ir.OpLoadB64:
				addr = (memIdx + memOff) & ptrlayout.AddressMask
				if addr+sz <= inst.memSize {
					goto loadRead
				}
			case ir.OpLoadB64Tag:
				full := memIdx + memOff
				addr = full & ptrlayout.AddressMask
				tags, tag, last := inst.tags.Granules(), ptrlayout.Tag(full), (addr+sz-1)/mte.GranuleSize
				if addr+sz <= inst.memSize && last < uint64(len(tags)) &&
					tags[addr/mte.GranuleSize] == tag && tags[last] == tag {
					goto loadRead
				}
			case ir.OpLoadG32:
				addr = uint64(uint32(memIdx)) + memOff
				if addr+sz <= inst.memSize {
					goto loadRead
				}
			case ir.OpLoadG32G:
				// No Go-level bounds check at all: gmem is the whole
				// 4 GiB+headroom reservation, so the index math never
				// trips a slice bound; an uncommitted page faults in the
				// MMU and runProtected converts it to TrapOutOfBounds.
				inst.guardPC = pc
				addr, mem = uint64(uint32(memIdx))+memOff, inst.gmem
				goto loadRead
			}
		loadCall:
			{
				inst.guardPC = pc
				var err error
				if v, err = inst.fusedMemLoad(memB, memOff, memIdx); err != nil {
					return inst.trapped(code, pc, memConstituent(in), err)
				}
				goto loaded
			}
		loadRead:
			if sz == 8 {
				// binary.LittleEndian.Uint64 spelled out, as it does not
				// inline here; the compiler still merges it into one load.
				b := mem[addr : addr+8 : addr+8]
				v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
					uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
			} else {
				b := mem[addr : addr+4 : addr+4]
				v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
				if ir.FusedMemOp(memB) == wasm.OpI64Load32S {
					v = uint64(int64(int32(v)))
				}
			}
		loaded:
			// The op's constituents after the load.
			l := len(stack)
			switch in.Op {
			case ir.OpFusedIdx1LoadF64Mul, ir.OpFusedIdx2LoadF64Mul, ir.OpFusedIdx3LoadF64Mul,
				ir.OpFusedConstI64MulAddLoadF64Mul:
				x := stack[l-1]
				r := math.Float64frombits(x) * math.Float64frombits(v)
				stack[l-1] = math.Float64bits(r)
				if r != r {
					stack[l-1] = f64NaN(x, v, stack[l-1])
				}
			case ir.OpFusedIdx1LoadF64Add, ir.OpFusedIdx1KLoadF64Add, ir.OpFusedConstI64MulAddLoadF64Add:
				x := stack[l-1]
				r := math.Float64frombits(x) + math.Float64frombits(v)
				stack[l-1] = math.Float64bits(r)
				if r != r {
					stack[l-1] = f64NaN(x, v, stack[l-1])
				}
			case ir.OpFusedConstI64MulAddLoadF64Sub:
				x := stack[l-1]
				r := math.Float64frombits(x) - math.Float64frombits(v)
				stack[l-1] = math.Float64bits(r)
				if r != r {
					stack[l-1] = f64NaN(x, v, stack[l-1])
				}
			case ir.OpFusedLoadALU:
				stack = append(stack, v)
				aluOp = ir.FusedMemALU(in.B)
				goto fusedALU
			case ir.OpFusedConstALUALULoadALU:
				// Its last ALU is already in aluOp.
				stack = append(stack, v)
				goto fusedALU
			default:
				stack = append(stack, v)
			}
		}
		pc++
		continue

	store:
		// Shared store block, the load block's twin: the index and value
		// are the top two stack slots, the offset in.A. An accepted store
		// marks its page — and the next, should the access straddle one —
		// in the dirty set before it writes. A guard-region store first
		// probes the access's last byte, so a store that runs past the
		// committed prefix faults before it writes anything: a trapped
		// store is never partially visible, and the dirty mark only ever
		// indexes committed pages.
		{
			sz, mem := ir.FusedMemSize(memB), inst.mem
			idx, val := stack[len(stack)-2], stack[len(stack)-1]
			var addr uint64
			if sz < 4 {
				goto storeCall
			}
			switch ir.FusedMemVariant(memB) {
			case ir.OpStoreMTE:
				full := inst.heapBase + idx&inst.policy.IndexMask + in.A
				addr = full & ptrlayout.AddressMask
				tags, tag, last := inst.tags.Granules(), ptrlayout.Tag(full), (addr+sz-1)/mte.GranuleSize
				if addr+sz <= uint64(len(mem)) && last < uint64(len(tags)) &&
					tags[addr/mte.GranuleSize] == tag && tags[last] == tag {
					goto storeWrite
				}
			case ir.OpStoreB64:
				addr = (idx + in.A) & ptrlayout.AddressMask
				if addr+sz <= inst.memSize {
					goto storeWrite
				}
			case ir.OpStoreB64Tag:
				full := idx + in.A
				addr = full & ptrlayout.AddressMask
				tags, tag, last := inst.tags.Granules(), ptrlayout.Tag(full), (addr+sz-1)/mte.GranuleSize
				if addr+sz <= inst.memSize && last < uint64(len(tags)) &&
					tags[addr/mte.GranuleSize] == tag && tags[last] == tag {
					goto storeWrite
				}
			case ir.OpStoreG32:
				addr = uint64(uint32(idx)) + in.A
				if addr+sz <= inst.memSize {
					goto storeWrite
				}
			case ir.OpStoreG32G:
				inst.guardPC = pc
				addr, mem = uint64(uint32(idx))+in.A, inst.gmem
				guardProbeSink = mem[addr+sz-1]
				goto storeWrite
			}
		storeCall:
			inst.guardPC = pc
			if err := inst.fusedMemStore(memB, in.A, idx, val); err != nil {
				return inst.trapped(code, pc, memConstituent(in), err)
			}
			goto stored
		storeWrite:
			{
				d, p, q := inst.dirty.bits, addr>>dirtyPageShift, (addr+sz-1)>>dirtyPageShift
				d[p>>6] |= 1 << (p & 63)
				d[q>>6] |= 1 << (q & 63)
			}
			if sz == 8 {
				b := mem[addr : addr+8 : addr+8]
				b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
				b[4], b[5], b[6], b[7] = byte(val>>32), byte(val>>40), byte(val>>48), byte(val>>56)
			} else {
				b := mem[addr : addr+4 : addr+4]
				b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
			}
		stored:
			stack = stack[:len(stack)-2]
		}
		pc++
		continue

	call:
		// Interrupt checkpoint at every call entry, host and guest alike,
		// so cancellation reaches even loop-free recursion.
		if mtr != nil && !mtr.quiet() {
			if err := inst.checkpoint(mtr); err != nil {
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
				inst.drain() // the host may read the counter
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
				goto region
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
			goto region
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
			goto region
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
