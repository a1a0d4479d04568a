package exec

import "fmt"

// TrapCode classifies a wasm trap.
type TrapCode int

// Trap codes.
const (
	// TrapUnreachable is the unreachable instruction.
	TrapUnreachable TrapCode = iota
	// TrapOutOfBounds is a linear-memory access outside the sandbox
	// caught by a software bounds check or guard page.
	TrapOutOfBounds
	// TrapTagMismatch is an MTE tag-check failure (memory-safety
	// violation or tag-based sandbox escape attempt).
	TrapTagMismatch
	// TrapAuthFailure is a failed i64.pointer_auth (Fig. 11 eq. 13).
	TrapAuthFailure
	// TrapSegment is an invalid segment.new/set_tag/free
	// (Fig. 11 eqs. 6, 8, 10 — unaligned, out of bounds, double free).
	TrapSegment
	// TrapDivByZero is integer division by zero.
	TrapDivByZero
	// TrapIntOverflow is integer overflow in div/trunc.
	TrapIntOverflow
	// TrapIndirectCall is a bad call_indirect (null entry, out of range,
	// signature mismatch).
	TrapIndirectCall
	// TrapStackOverflow is call-stack exhaustion: the frame machine's
	// exact frame-count bound (MaxCallDepth frames, host crossings
	// included) or its value-arena bound (MaxStackWords) was exceeded.
	// Unlike a Go-recursion proxy, the trap fires at a precise,
	// deterministic frame count.
	TrapStackOverflow
	// TrapHost is an error returned by a host function.
	TrapHost
	// TrapExit is a clean proc_exit from WASI.
	TrapExit
	// TrapFuelExhausted aborts a metered call that consumed its fuel
	// budget (CallOptions.Fuel).
	TrapFuelExhausted
	// TrapInterrupted aborts a call whose context was cancelled or whose
	// deadline passed; the trap wraps the context error (Unwrap), so
	// errors.Is(err, context.DeadlineExceeded) still works.
	TrapInterrupted
)

var trapNames = map[TrapCode]string{
	TrapUnreachable:   "unreachable",
	TrapOutOfBounds:   "out of bounds memory access",
	TrapTagMismatch:   "MTE tag mismatch",
	TrapAuthFailure:   "pointer authentication failure",
	TrapSegment:       "invalid segment operation",
	TrapDivByZero:     "integer divide by zero",
	TrapIntOverflow:   "integer overflow",
	TrapIndirectCall:  "invalid indirect call",
	TrapStackOverflow: "call stack exhausted",
	TrapHost:          "host function error",
	TrapExit:          "process exit",
	TrapFuelExhausted: "fuel exhausted",
	TrapInterrupted:   "call interrupted",
}

// String returns the trap code's stable human-readable name (the same
// string Trap.Error embeds), so embedders building structured error
// surfaces (e.g. the serve daemon's JSON errors) never re-invent the
// mapping.
func (c TrapCode) String() string {
	if name, ok := trapNames[c]; ok {
		return name
	}
	return fmt.Sprintf("trap(%d)", int(c))
}

// Trap is a wasm trap: execution aborts and unwinds to the embedder.
type Trap struct {
	Code TrapCode
	Msg  string
	// ExitCode is set for TrapExit.
	ExitCode int32
	// Cause, when non-nil, is the error that provoked the trap (the
	// context error for TrapInterrupted); it is exposed via Unwrap.
	Cause error
}

// Error implements the error interface.
func (t *Trap) Error() string {
	name := trapNames[t.Code]
	if t.Msg == "" {
		return "wasm trap: " + name
	}
	return fmt.Sprintf("wasm trap: %s: %s", name, t.Msg)
}

// Unwrap exposes the trap's cause to errors.Is/errors.As chains.
func (t *Trap) Unwrap() error { return t.Cause }

func newTrap(code TrapCode, format string, args ...any) *Trap {
	return &Trap{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// IsTrap reports whether err is a trap with the given code.
func IsTrap(err error, code TrapCode) bool {
	t, ok := err.(*Trap)
	return ok && t.Code == code
}
