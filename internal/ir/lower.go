package ir

import (
	"fmt"
	"math"

	"cage/internal/wasm"
)

// Lower flattens every function body of m into the lowered form for
// cfg: structured control flow becomes absolute-PC branches with the
// stack repair (height to keep, values to carry) precomputed, block
// arities and immediates are decoded once, and memory accesses are
// specialized to cfg's address-translation mode. The result is
// immutable and shareable across instances.
//
// Lower is defensive: on a malformed module it returns an error rather
// than panicking, so it can run ahead of wasm.Validate in cached
// pipelines. It does not, however, replace validation — type errors a
// lowering pass cannot see still surface there.
func Lower(m *wasm.Module, cfg Config) (*Program, error) {
	p := &Program{Cfg: cfg, Funcs: make([]Func, len(m.Funcs))}
	for i := range m.Funcs {
		fn, err := lowerFunc(m, &m.Funcs[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("ir: function %d: %w", i, err)
		}
		p.Funcs[i] = fn
	}
	if err := BuildCharges(p); err != nil {
		return nil, err
	}
	return p, nil
}

// frame kinds tracked during lowering.
const (
	kindFunc = iota
	kindBlock
	kindLoop
	kindIf
)

// fixup is a branch awaiting its frame's end PC: it patches either an
// instruction's B field (target < 0) or a br_table entry's PC.
type fixup struct {
	instr  int
	target int
}

// frame is one open control construct during lowering.
type frame struct {
	kind      int
	depth     int // operand-stack height at entry
	arity     int // branch arity (block/if results; 0 for loop)
	results   int // values live after the end
	headerPC  int // loop body start (back-edge target)
	fixups    []fixup
	elseFixup int  // pending if-conditional awaiting else/end, -1 if none
	sawElse   bool // an else arm was seen
	live      bool // the construct was entered from reachable code
}

func lowerFunc(m *wasm.Module, f *wasm.Function, cfg Config) (Func, error) {
	typ := wasm.FuncType{}
	if int(f.TypeIdx) < len(m.Types) {
		typ = m.Types[f.TypeIdx]
	} else {
		return Func{}, fmt.Errorf("type index %d out of range", f.TypeIdx)
	}
	out := Func{
		NumParams:  len(typ.Params),
		NumResults: len(typ.Results),
		NumLocals:  len(f.Locals),
	}

	var code []Instr
	emit := func(in Instr) int {
		code = append(code, in)
		return len(code) - 1
	}
	// fence emits the hardened config's speculation barrier. It is
	// called immediately before an indirect branch or return is emitted,
	// so branch fixups that resolve to the protected instruction's
	// position land on the fence and fall through into it — the barrier
	// is never skippable.
	fence := func() {
		if cfg.Harden {
			emit(Instr{Op: OpFence})
		}
	}

	depth := 0
	unreachable := false
	maxStack := 0
	note := func() {
		if depth > maxStack {
			maxStack = depth
		}
	}
	frames := []frame{{
		kind: kindFunc, arity: len(typ.Results), results: len(typ.Results),
		elseFixup: -1, live: true,
	}}

	blockArity := func(bt wasm.BlockType) int {
		if _, ok := bt.Result(); ok {
			return 1
		}
		return 0
	}

	// branchFrame resolves relative depth d to an open frame.
	branchFrame := func(d uint64) (*frame, error) {
		if d >= uint64(len(frames)) {
			return nil, fmt.Errorf("branch depth %d exceeds %d open frames", d, len(frames))
		}
		return &frames[len(frames)-1-int(d)], nil
	}

	for pc := 0; pc < len(f.Body); pc++ {
		in := f.Body[pc]
		op := in.Op

		// Inside unreachable code nothing executes and nothing is
		// emitted; only the control nesting is tracked so else/end
		// match their construct.
		if unreachable {
			switch op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				r := blockArity(in.Block)
				a := r
				if op == wasm.OpLoop {
					a = 0
				}
				k := kindBlock
				switch op {
				case wasm.OpLoop:
					k = kindLoop
				case wasm.OpIf:
					k = kindIf
				}
				frames = append(frames, frame{
					kind: k, depth: depth, arity: a, results: r,
					elseFixup: -1, live: false,
				})
			case wasm.OpElse, wasm.OpEnd:
				// Handled by the shared arms below.
			default:
				continue
			}
			if op != wasm.OpElse && op != wasm.OpEnd {
				continue
			}
		}

		switch op {
		case wasm.OpNop:
			// Dissolves.

		case wasm.OpUnreachable:
			emit(Instr{Op: OpUnreachable})
			unreachable = true

		case wasm.OpBlock:
			r := blockArity(in.Block)
			frames = append(frames, frame{
				kind: kindBlock, depth: depth, arity: r, results: r,
				elseFixup: -1, live: true,
			})

		case wasm.OpLoop:
			r := blockArity(in.Block)
			frames = append(frames, frame{
				kind: kindLoop, depth: depth, arity: 0, results: r,
				headerPC: len(code), elseFixup: -1, live: true,
			})

		case wasm.OpIf:
			if depth < 1 {
				return out, fmt.Errorf("pc %d: if with empty stack", pc)
			}
			depth--
			r := blockArity(in.Block)
			idx := emit(Instr{Op: OpBrIfZ})
			frames = append(frames, frame{
				kind: kindIf, depth: depth, arity: r, results: r,
				elseFixup: idx, live: true,
			})

		case wasm.OpElse:
			fr := &frames[len(frames)-1]
			if fr.kind != kindIf || fr.sawElse {
				return out, fmt.Errorf("pc %d: else without if", pc)
			}
			fr.sawElse = true
			if fr.live {
				if !unreachable {
					// The then-arm falls through: skip over the else arm.
					idx := emit(Instr{Op: OpGoto})
					fr.fixups = append(fr.fixups, fixup{instr: idx, target: -1})
				}
				// The if-conditional lands at the else arm's first
				// instruction.
				code[fr.elseFixup].B = uint64(len(code))
				fr.elseFixup = -1
				depth = fr.depth
				unreachable = false
			}

		case wasm.OpEnd:
			fr := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			endPC := len(code)
			for _, fx := range fr.fixups {
				if fx.target < 0 {
					code[fx.instr].B = uint64(endPC)
				} else {
					code[fx.instr].Targets[fx.target].PC = uint32(endPC)
				}
			}
			// An if without an else: the false edge lands after the end.
			viaCond := false
			if fr.elseFixup >= 0 && !fr.sawElse {
				code[fr.elseFixup].B = uint64(endPC)
				viaCond = true
			}
			reachable := !unreachable || len(fr.fixups) > 0 || viaCond
			depth = fr.depth + fr.results
			note()
			unreachable = !reachable
			if fr.kind == kindFunc {
				// Branches targeting the function end were patched to
				// endPC above, which is where this fence lands: they
				// run the barrier, then the epilogue.
				fence()
				emit(Instr{Op: OpRetEnd, A: uint64(fr.results)})
				if pc != len(f.Body)-1 {
					return out, fmt.Errorf("pc %d: code after function end", pc)
				}
			}

		case wasm.OpBr, wasm.OpBrIf:
			cond := op == wasm.OpBrIf
			if cond {
				if depth < 1 {
					return out, fmt.Errorf("pc %d: br_if with empty stack", pc)
				}
				depth--
			}
			fr, err := branchFrame(in.X)
			if err != nil {
				return out, fmt.Errorf("pc %d: %w", pc, err)
			}
			lop := OpBr
			if cond {
				lop = OpBrIf
			}
			lin := Instr{Op: lop, A: PackBranch(fr.depth, fr.arity)}
			if fr.kind == kindLoop {
				lin.A = PackBranch(fr.depth, 0)
				lin.B = uint64(fr.headerPC)
				emit(lin)
			} else {
				idx := emit(lin)
				fr.fixups = append(fr.fixups, fixup{instr: idx, target: -1})
			}
			if !cond {
				unreachable = true
			}

		case wasm.OpBrTable:
			if depth < 1 {
				return out, fmt.Errorf("pc %d: br_table with empty stack", pc)
			}
			depth--
			fence()
			targets := make([]BranchTarget, 0, len(in.Targets)+1)
			idx := emit(Instr{Op: OpBrTable})
			for k, d := range append(append([]uint32{}, in.Targets...), uint32(in.X)) {
				fr, err := branchFrame(uint64(d))
				if err != nil {
					return out, fmt.Errorf("pc %d: %w", pc, err)
				}
				t := BranchTarget{Keep: uint32(fr.depth), Arity: uint32(fr.arity)}
				if fr.kind == kindLoop {
					t.Arity = 0
					t.PC = uint32(fr.headerPC)
				} else {
					fr.fixups = append(fr.fixups, fixup{instr: idx, target: k})
				}
				targets = append(targets, t)
			}
			code[idx].Targets = targets
			unreachable = true

		case wasm.OpReturn:
			fence()
			emit(Instr{Op: OpReturn, A: uint64(len(typ.Results))})
			unreachable = true

		case wasm.OpCall:
			ft, err := m.FuncTypeAt(uint32(in.X))
			if err != nil {
				return out, fmt.Errorf("pc %d: %w", pc, err)
			}
			emit(Instr{Op: OpCall, A: in.X, B: uint64(len(ft.Params))})
			depth += len(ft.Results) - len(ft.Params)
			if depth < 0 {
				return out, fmt.Errorf("pc %d: call underflows stack", pc)
			}

		case wasm.OpCallIndirect:
			if int(in.X) >= len(m.Types) {
				return out, fmt.Errorf("pc %d: call_indirect type %d out of range", pc, in.X)
			}
			want := m.Types[in.X]
			fence()
			emit(Instr{Op: OpCallIndirect, A: in.X, B: uint64(len(want.Params))})
			depth += len(want.Results) - len(want.Params) - 1
			if depth < 0 {
				return out, fmt.Errorf("pc %d: call_indirect underflows stack", pc)
			}

		case wasm.OpDrop:
			emit(Instr{Op: OpDrop})
			depth--

		case wasm.OpSelect:
			emit(Instr{Op: OpSelect})
			depth -= 2

		case wasm.OpLocalGet:
			emit(Instr{Op: OpLocalGet, A: in.X})
			depth++
		case wasm.OpLocalSet:
			emit(Instr{Op: OpLocalSet, A: in.X})
			depth--
		case wasm.OpLocalTee:
			emit(Instr{Op: OpLocalTee, A: in.X})
		case wasm.OpGlobalGet:
			emit(Instr{Op: OpGlobalGet, A: in.X})
			depth++
		case wasm.OpGlobalSet:
			emit(Instr{Op: OpGlobalSet, A: in.X})
			depth--

		case wasm.OpI32Const, wasm.OpI64Const:
			emit(Instr{Op: OpConst, A: in.X})
			depth++
		case wasm.OpF32Const:
			emit(Instr{Op: OpConst, A: uint64(math.Float32bits(float32(in.F)))})
			depth++
		case wasm.OpF64Const:
			emit(Instr{Op: OpConst, A: math.Float64bits(in.F)})
			depth++

		case wasm.OpMemorySize:
			emit(Instr{Op: OpMemorySize})
			depth++
		case wasm.OpMemoryGrow:
			emit(Instr{Op: OpMemoryGrow})
		case wasm.OpMemoryFill:
			emit(Instr{Op: OpMemoryFill})
			depth -= 3
		case wasm.OpMemoryCopy:
			emit(Instr{Op: OpMemoryCopy})
			depth -= 3

		case wasm.OpSegmentNew:
			emit(Instr{Op: OpSegmentNew, A: in.Offset})
			depth--
		case wasm.OpSegmentSetTag:
			emit(Instr{Op: OpSegmentSetTag, A: in.Offset})
			depth -= 3
		case wasm.OpSegmentFree:
			emit(Instr{Op: OpSegmentFree, A: in.Offset})
			depth -= 2

		case wasm.OpPointerSign:
			if cfg.PtrAuth {
				emit(Instr{Op: OpPtrSign})
			} else {
				emit(Instr{Op: OpPtrSignNop})
			}
		case wasm.OpPointerAuth:
			if cfg.PtrAuth {
				emit(Instr{Op: OpPtrAuth})
			} else {
				emit(Instr{Op: OpPtrAuthNop})
			}

		default:
			switch {
			case op.IsLoad():
				emit(Instr{Op: cfg.loadOpFor(in.Offset), A: in.Offset, B: PackMem(op.AccessSize(), op)})
			case op.IsStore():
				emit(Instr{Op: cfg.storeOpFor(in.Offset), A: in.Offset, B: PackMem(op.AccessSize(), op)})
				depth -= 2
			default:
				pop, push, ok := numericEffect(op)
				if !ok {
					return out, fmt.Errorf("pc %d: unsupported opcode %v", pc, op)
				}
				emit(Instr{Op: OpNumericBase + Op(op)})
				depth += push - pop
			}
		}
		if depth < 0 {
			return out, fmt.Errorf("pc %d: %v underflows operand stack", pc, op)
		}
		note()
	}

	if len(frames) != 0 {
		return out, fmt.Errorf("unbalanced control flow: %d frames left open", len(frames))
	}
	if len(code) == 0 || code[len(code)-1].Op != OpRetEnd {
		return out, fmt.Errorf("function body not terminated by end")
	}
	out.MaxStack = maxStack
	out.FrameSize = out.NumParams + out.NumLocals + maxStack
	out.Code = code
	return out, nil
}

// loadOp picks the specialized load opcode for the config.
func (c Config) loadOp() Op {
	switch c.Mode {
	case ModeGuard32:
		if c.SkipBounds {
			return OpLoadG32NC
		}
		return OpLoadG32
	case ModeBounds64:
		switch {
		case c.SkipBounds && c.MemSafety:
			return OpLoadB64NCTag
		case c.SkipBounds:
			return OpLoadB64NC
		case c.MemSafety:
			return OpLoadB64Tag
		default:
			return OpLoadB64
		}
	default:
		if c.SkipBounds {
			return OpLoadMTENC
		}
		return OpLoadMTE
	}
}

// storeOp picks the specialized store opcode for the config.
func (c Config) storeOp() Op {
	switch c.Mode {
	case ModeGuard32:
		if c.SkipBounds {
			return OpStoreG32NC
		}
		return OpStoreG32
	case ModeBounds64:
		switch {
		case c.SkipBounds && c.MemSafety:
			return OpStoreB64NCTag
		case c.SkipBounds:
			return OpStoreB64NC
		case c.MemSafety:
			return OpStoreB64Tag
		default:
			return OpStoreB64
		}
	default:
		if c.SkipBounds {
			return OpStoreMTENC
		}
		return OpStoreMTE
	}
}

// loadOpFor picks the load opcode for one access: the config's
// specialized opcode, upgraded to the guard-region variant when the
// guard backend is active and the memarg offset is within the
// reservation headroom's guarantee. Offsets past GuardMaxOffset keep
// the explicit check — rare enough that the fallback costs nothing.
func (c Config) loadOpFor(offset uint64) Op {
	op := c.loadOp()
	if op == OpLoadG32 && c.Guard && offset <= GuardMaxOffset {
		return OpLoadG32G
	}
	return op
}

// storeOpFor is loadOpFor for stores.
func (c Config) storeOpFor(offset uint64) Op {
	op := c.storeOp()
	if op == OpStoreG32 && c.Guard && offset <= GuardMaxOffset {
		return OpStoreG32G
	}
	return op
}

// NumericStackEffect returns the operand-stack effect of a pure value
// instruction, or ok=false for opcodes that are not pass-through
// numerics: exactly the ops a fused form's ALU slot accepts.
func NumericStackEffect(op wasm.Opcode) (pop, push int, ok bool) {
	return numericEffect(op)
}

// numericEffect returns the operand-stack effect of a pure value
// instruction, or ok=false for opcodes that are not pass-through
// numerics.
func numericEffect(op wasm.Opcode) (pop, push int, ok bool) {
	switch {
	case op == wasm.OpI32Eqz || op == wasm.OpI64Eqz:
		return 1, 1, true
	case op >= wasm.OpI32Eq && op <= wasm.OpI32GeU, // i32 compares
		op >= wasm.OpI64Eq && op <= wasm.OpI64GeU, // i64 compares
		op >= wasm.OpF32Eq && op <= wasm.OpF64Ge:  // float compares
		return 2, 1, true
	case op >= wasm.OpI32Clz && op <= wasm.OpI32Popcnt,
		op >= wasm.OpI64Clz && op <= wasm.OpI64Popcnt,
		op >= wasm.OpF32Abs && op <= wasm.OpF32Sqrt,
		op >= wasm.OpF64Abs && op <= wasm.OpF64Sqrt:
		return 1, 1, true
	case op >= wasm.OpI32Add && op <= wasm.OpI32Rotr,
		op >= wasm.OpI64Add && op <= wasm.OpI64Rotr,
		op >= wasm.OpF32Add && op <= wasm.OpF32Copysign,
		op >= wasm.OpF64Add && op <= wasm.OpF64Copysign:
		return 2, 1, true
	case op >= wasm.OpI32WrapI64 && op <= wasm.OpF64ReinterpretI64:
		return 1, 1, true
	}
	return 0, 0, false
}
