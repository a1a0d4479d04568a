package exec

// The pre-lowering re-scanning interpreter: function bodies keep their
// wasm.Instr form, control flow is resolved into matchEnd/matchElse
// side tables re-consulted at every block, if, and branch, and calls
// recurse through Go with freshly allocated locals, args, and results
// per activation. It is the oracle for the frame machine — the
// differential tests require identical results, identical traps, and
// identical timing-model event counts — and the reference tier of
// BenchmarkLoweredVsLegacy and BenchmarkCallOverhead. It lives in a
// _test file of the package proper (not of exec_test) so it shares the
// instance's state and the un-specialized effectiveAddr path — any
// semantic drift between the two executors is a real bug, not a
// harness artifact — while no production binary links a second
// interpreter.

import (
	"errors"
	"fmt"
	"math"

	"cage/internal/arch"
	"cage/internal/pac"
	"cage/internal/wasm"
)

// legacyFunc is a function body with control-flow targets resolved.
type legacyFunc struct {
	fn        *wasm.Function
	typ       wasm.FuncType
	matchEnd  []int32 // for block/loop/if/else: pc of the matching end
	matchElse []int32 // for if: pc of its else, or -1
}

func legacyCompile(m *wasm.Module, f *wasm.Function) (legacyFunc, error) {
	cf := legacyFunc{
		fn:        f,
		typ:       m.Types[f.TypeIdx],
		matchEnd:  make([]int32, len(f.Body)),
		matchElse: make([]int32, len(f.Body)),
	}
	for i := range cf.matchElse {
		cf.matchElse[i] = -1
	}
	var stack []int
	var elses []int
	for pc, in := range f.Body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			stack = append(stack, pc)
			elses = append(elses, -1)
		case wasm.OpElse:
			if len(stack) == 0 {
				return cf, newTrap(TrapUnreachable, "else without if at pc %d", pc)
			}
			cf.matchElse[stack[len(stack)-1]] = int32(pc)
			elses[len(elses)-1] = pc
		case wasm.OpEnd:
			if len(stack) == 0 {
				continue // function-level end
			}
			open := stack[len(stack)-1]
			cf.matchEnd[open] = int32(pc)
			if e := elses[len(elses)-1]; e >= 0 {
				cf.matchEnd[e] = int32(pc)
			}
			stack = stack[:len(stack)-1]
			elses = elses[:len(elses)-1]
		}
	}
	return cf, nil
}

// legacyCtrl is a runtime control-stack entry.
type legacyCtrl struct {
	op     wasm.Opcode
	height int
	arity  int
	endPC  int32
	loopPC int32
}

// LegacyRunner executes an instance's module with the pre-lowering
// interpreter against the instance's live state.
type LegacyRunner struct {
	inst  *Instance
	funcs []legacyFunc
}

// NewLegacyRunner resolves control flow for every function of inst's
// module, the pre-lowering analogue of the lowering pass.
func NewLegacyRunner(inst *Instance) (*LegacyRunner, error) {
	m := inst.module
	lr := &LegacyRunner{inst: inst, funcs: make([]legacyFunc, len(m.Funcs))}
	for i := range m.Funcs {
		cf, err := legacyCompile(m, &m.Funcs[i])
		if err != nil {
			return nil, err
		}
		lr.funcs[i] = cf
	}
	return lr, nil
}

// Invoke calls an exported function through the legacy interpreter.
func (lr *LegacyRunner) Invoke(name string, args ...uint64) ([]uint64, error) {
	fidx, ok := lr.inst.module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("exec: no exported function %q", name)
	}
	res, err := lr.invoke(fidx, args)
	if err == nil {
		err = lr.inst.pollAsyncFault()
	}
	return res, err
}

func (lr *LegacyRunner) invoke(fidx uint32, args []uint64) ([]uint64, error) {
	inst := lr.inst
	if inst.depth >= inst.maxCallDepth {
		return nil, newTrap(TrapStackOverflow, "call depth %d", inst.depth)
	}
	inst.depth++
	defer func() { inst.depth-- }()

	if int(fidx) < len(inst.imports) {
		hf := inst.imports[fidx]
		res, err := hf.Fn(&HostContext{inst: inst, ctx: inst.callCtx}, args)
		if err != nil {
			var t *Trap
			if errors.As(err, &t) {
				return nil, t
			}
			return nil, &Trap{Code: TrapHost, Msg: err.Error()}
		}
		return res, nil
	}
	di := int(fidx) - len(inst.imports)
	if di >= len(lr.funcs) {
		return nil, newTrap(TrapIndirectCall, "function index %d out of range", fidx)
	}
	cf := &lr.funcs[di]
	if len(args) != len(cf.typ.Params) {
		return nil, newTrap(TrapIndirectCall, "function %d expects %d args, got %d",
			fidx, len(cf.typ.Params), len(args))
	}
	locals := make([]uint64, len(cf.typ.Params)+len(cf.fn.Locals))
	copy(locals, args)
	return lr.run(cf, locals)
}

// legacyReadScalar reads a little-endian scalar of the given width one
// byte at a time — the oracle's own access path, independent of the
// frame machine's whole-width readScalar it is compared against.
func legacyReadScalar(mem []byte, addr, size uint64) uint64 {
	var raw uint64
	for i := uint64(0); i < size; i++ {
		raw |= uint64(mem[addr+i]) << (8 * i)
	}
	return raw
}

// legacyWriteScalar writes a little-endian scalar one byte at a time;
// see legacyReadScalar.
func legacyWriteScalar(mem []byte, addr, size, val uint64) {
	for i := uint64(0); i < size; i++ {
		mem[addr+i] = byte(val >> (8 * i))
	}
}

func (lr *LegacyRunner) doLoad(in wasm.Instr, stack *[]uint64) error {
	inst := lr.inst
	inst.counter.Add(arch.EvLoad, 1)
	s := *stack
	idx := s[len(s)-1]
	size := in.Op.AccessSize()
	addr, err := inst.effectiveAddr(idx, in.Offset, size, false)
	if err != nil {
		return err
	}
	s[len(s)-1] = extendLoad(in.Op, legacyReadScalar(inst.mem, addr, size))
	return nil
}

func (lr *LegacyRunner) doStore(in wasm.Instr, stack *[]uint64) error {
	inst := lr.inst
	inst.counter.Add(arch.EvStore, 1)
	s := *stack
	val := s[len(s)-1]
	idx := s[len(s)-2]
	*stack = s[:len(s)-2]
	size := in.Op.AccessSize()
	addr, err := inst.effectiveAddr(idx, in.Offset, size, true)
	if err != nil {
		return err
	}
	legacyWriteScalar(inst.mem, addr, size, val)
	return nil
}

// run executes a compiled function body by re-scanning dispatch.
func (lr *LegacyRunner) run(cf *legacyFunc, locals []uint64) ([]uint64, error) {
	inst := lr.inst
	body := cf.fn.Body
	ctr := inst.counter
	var stack []uint64
	ctrls := []legacyCtrl{{op: wasm.OpEnd, arity: len(cf.typ.Results), endPC: int32(len(body) - 1)}}

	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	branch := func(d int, pc int) int {
		idx := len(ctrls) - 1 - d
		fr := ctrls[idx]
		if fr.op == wasm.OpLoop {
			stack = stack[:fr.height]
			ctrls = ctrls[:idx+1]
			return int(fr.loopPC)
		}
		vals := stack[len(stack)-fr.arity:]
		tmp := make([]uint64, fr.arity)
		copy(tmp, vals)
		stack = append(stack[:fr.height], tmp...)
		ctrls = ctrls[:idx]
		return int(fr.endPC)
	}

	pc := 0
	for pc < len(body) {
		in := body[pc]
		op := in.Op
		switch op {
		case wasm.OpUnreachable:
			return nil, newTrap(TrapUnreachable, "at pc %d", pc)
		case wasm.OpNop:
		case wasm.OpBlock:
			arity := 0
			if _, ok := in.Block.Result(); ok {
				arity = 1
			}
			ctrls = append(ctrls, legacyCtrl{op: op, height: len(stack), arity: arity, endPC: cf.matchEnd[pc]})
		case wasm.OpLoop:
			ctrls = append(ctrls, legacyCtrl{op: op, height: len(stack), endPC: cf.matchEnd[pc], loopPC: int32(pc)})
		case wasm.OpIf:
			ctr.Add(arch.EvBranch, 1)
			arity := 0
			if _, ok := in.Block.Result(); ok {
				arity = 1
			}
			cond := pop()
			ctrls = append(ctrls, legacyCtrl{op: op, height: len(stack), arity: arity, endPC: cf.matchEnd[pc]})
			if uint32(cond) == 0 {
				if e := cf.matchElse[pc]; e >= 0 {
					pc = int(e)
				} else {
					pc = int(cf.matchEnd[pc]) - 1
				}
			}
		case wasm.OpElse:
			pc = int(cf.matchEnd[pc]) - 1
		case wasm.OpEnd:
			ctrls = ctrls[:len(ctrls)-1]
			if len(ctrls) == 0 {
				res := make([]uint64, len(cf.typ.Results))
				copy(res, stack[len(stack)-len(res):])
				return res, nil
			}
		case wasm.OpBr:
			ctr.Add(arch.EvBranch, 1)
			pc = branch(int(in.X), pc)
		case wasm.OpBrIf:
			ctr.Add(arch.EvBranch, 1)
			if uint32(pop()) != 0 {
				pc = branch(int(in.X), pc)
			}
		case wasm.OpBrTable:
			ctr.Add(arch.EvBrTable, 1)
			i := uint32(pop())
			d := uint32(in.X)
			if uint64(i) < uint64(len(in.Targets)) {
				d = in.Targets[i]
			}
			pc = branch(int(d), pc)
		case wasm.OpReturn:
			ctr.Add(arch.EvReturn, 1)
			res := make([]uint64, len(cf.typ.Results))
			copy(res, stack[len(stack)-len(res):])
			return res, nil
		case wasm.OpCall:
			ctr.Add(arch.EvCall, 1)
			ft, err := inst.module.FuncTypeAt(uint32(in.X))
			if err != nil {
				return nil, newTrap(TrapIndirectCall, "%v", err)
			}
			n := len(ft.Params)
			args := make([]uint64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			res, err := lr.invoke(uint32(in.X), args)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpCallIndirect:
			ctr.Add(arch.EvCallIndirect, 1)
			ti := uint32(pop())
			if uint64(ti) >= uint64(len(inst.table)) {
				return nil, newTrap(TrapIndirectCall, "table index %d out of range", ti)
			}
			fidx := inst.table[ti]
			if fidx < 0 {
				return nil, newTrap(TrapIndirectCall, "null table entry %d", ti)
			}
			want := inst.module.Types[in.X]
			got, err := inst.module.FuncTypeAt(uint32(fidx))
			if err != nil {
				return nil, newTrap(TrapIndirectCall, "%v", err)
			}
			if !got.Equal(want) {
				return nil, newTrap(TrapIndirectCall,
					"signature mismatch: table entry %d has %v, expected %v", ti, got, want)
			}
			n := len(want.Params)
			args := make([]uint64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			res, err := lr.invoke(uint32(fidx), args)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpDrop:
			pop()
		case wasm.OpSelect:
			ctr.Add(arch.EvSelect, 1)
			c := uint32(pop())
			b := pop()
			a := pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}
		case wasm.OpLocalGet:
			ctr.Add(arch.EvLocal, 1)
			push(locals[in.X])
		case wasm.OpLocalSet:
			ctr.Add(arch.EvLocal, 1)
			locals[in.X] = pop()
		case wasm.OpLocalTee:
			ctr.Add(arch.EvLocal, 1)
			locals[in.X] = stack[len(stack)-1]
		case wasm.OpGlobalGet:
			ctr.Add(arch.EvGlobal, 1)
			push(inst.globals[in.X])
		case wasm.OpGlobalSet:
			ctr.Add(arch.EvGlobal, 1)
			inst.globals[in.X] = pop()
		case wasm.OpI32Const, wasm.OpI64Const:
			ctr.Add(arch.EvConst, 1)
			push(in.X)
		case wasm.OpF32Const:
			ctr.Add(arch.EvConst, 1)
			push(uint64(math.Float32bits(float32(in.F))))
		case wasm.OpF64Const:
			ctr.Add(arch.EvConst, 1)
			push(math.Float64bits(in.F))
		case wasm.OpMemorySize:
			ctr.Add(arch.EvALU, 1)
			push(inst.memSize / wasm.PageSize)
		case wasm.OpMemoryGrow:
			ctr.Add(arch.EvMemGrow, 1)
			push(inst.memoryGrow(pop()))
		case wasm.OpMemoryFill:
			n, err := inst.memoryFill(stack)
			if err != nil {
				return nil, err
			}
			stack = stack[:n]
		case wasm.OpMemoryCopy:
			n, err := inst.memoryCopy(stack)
			if err != nil {
				return nil, err
			}
			stack = stack[:n]
		case wasm.OpSegmentNew:
			length := pop()
			ptr := pop()
			tagged, err := inst.segmentNew(ptr, length, in.Offset)
			if err != nil {
				return nil, err
			}
			push(tagged)
		case wasm.OpSegmentSetTag:
			length := pop()
			tagged := pop()
			ptr := pop()
			if err := inst.segmentSetTag(ptr, tagged, length, in.Offset); err != nil {
				return nil, err
			}
		case wasm.OpSegmentFree:
			length := pop()
			tagged := pop()
			if err := inst.segmentFree(tagged, length, in.Offset); err != nil {
				return nil, err
			}
		case wasm.OpPointerSign:
			ctr.Add(arch.EvPACSign, 1)
			if inst.features.PtrAuth {
				push(inst.keys.Sign(pop()))
			}
		case wasm.OpPointerAuth:
			ctr.Add(arch.EvPACAuth, 1)
			if inst.features.PtrAuth {
				v, err := inst.keys.Auth(pop())
				if err != nil {
					if errors.Is(err, pac.ErrAuthFailed) {
						return nil, newTrap(TrapAuthFailure, "i64.pointer_auth at pc %d", pc)
					}
					return nil, err
				}
				push(v)
			}
		default:
			if op.IsLoad() {
				if err := lr.doLoad(in, &stack); err != nil {
					return nil, err
				}
			} else if op.IsStore() {
				if err := lr.doStore(in, &stack); err != nil {
					return nil, err
				}
			} else {
				if ev, ok := legacyNumericEvent(op); ok {
					ctr.Add(ev, 1)
				}
				n, err := inst.numeric(op, stack, len(stack))
				if err != nil {
					return nil, err
				}
				stack = stack[:n]
			}
		}
		pc++
	}
	return nil, newTrap(TrapUnreachable, "fell off function body")
}

// legacyNumericEvent is the oracle's own price list for the numeric
// ops, charged before the op runs (and traps): a second definition of
// the event table the dispatch loop charges from (ir.Op.Events), which
// the differential suites check that table against. An op numeric does
// not implement charges nothing.
func legacyNumericEvent(op wasm.Opcode) (arch.Event, bool) {
	switch op {
	case wasm.OpI32Eqz, wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU,
		wasm.OpI32GtS, wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
		wasm.OpI64Eqz, wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU,
		wasm.OpI64GtS, wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU,
		wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge,
		wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge:
		return arch.EvCmp, true
	case wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt, wasm.OpI32Add, wasm.OpI32Sub,
		wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor, wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU,
		wasm.OpI32Rotl, wasm.OpI32Rotr,
		wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt, wasm.OpI64Add, wasm.OpI64Sub,
		wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor, wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU,
		wasm.OpI64Rotl, wasm.OpI64Rotr:
		return arch.EvALU, true
	case wasm.OpI32Mul, wasm.OpI64Mul:
		return arch.EvMul, true
	case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU:
		return arch.EvDivInt, true
	case wasm.OpF32Abs, wasm.OpF32Neg, wasm.OpF32Ceil, wasm.OpF32Floor, wasm.OpF32Trunc,
		wasm.OpF32Nearest, wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Min, wasm.OpF32Max,
		wasm.OpF32Copysign,
		wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor, wasm.OpF64Trunc,
		wasm.OpF64Nearest, wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Min, wasm.OpF64Max,
		wasm.OpF64Copysign:
		return arch.EvFAdd, true
	case wasm.OpF32Mul, wasm.OpF64Mul:
		return arch.EvFMul, true
	case wasm.OpF32Div, wasm.OpF32Sqrt, wasm.OpF64Div, wasm.OpF64Sqrt:
		return arch.EvFDiv, true
	case wasm.OpI32WrapI64, wasm.OpI64ExtendI32S, wasm.OpI64ExtendI32U,
		wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S, wasm.OpI32TruncF64U,
		wasm.OpI64TruncF32S, wasm.OpI64TruncF32U, wasm.OpI64TruncF64S, wasm.OpI64TruncF64U,
		wasm.OpF32ConvertI32S, wasm.OpF32ConvertI32U, wasm.OpF32ConvertI64S, wasm.OpF32ConvertI64U,
		wasm.OpF32DemoteF64,
		wasm.OpF64ConvertI32S, wasm.OpF64ConvertI32U, wasm.OpF64ConvertI64S, wasm.OpF64ConvertI64U,
		wasm.OpF64PromoteF32,
		wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64, wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return arch.EvConv, true
	}
	return 0, false
}
