package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cage"
	"cage/internal/arch"
	"cage/internal/exec"
)

// The invoke hot path. A stdlib-only handler would allocate roughly a
// dozen objects per request: the JSON decoder and its token buffers,
// the InvokeRequest, the argument slice, one CallOption closure per
// quota axis, the context watcher, an events map, and the encoder.
// Under multicore load those allocations dominate the serve layer — the
// guest call itself is heap-free — so one pooled scratch per request
// replaces them:
//
//   - the body is read into a pooled buffer and parsed in place by a
//     hand-rolled strict parser (anything it does not fully recognize
//     falls back to the stdlib decoder, which owns every error message);
//   - module and function stay []byte views resolved against snapshot
//     maps with no-copy map indexes;
//   - the per-call bounds travel as a cage.CallSpec value (no option
//     closures) with a pooled result buffer;
//   - the 200 response is appended into a pooled byte slice, walking
//     the arch event table directly instead of materializing a map.
//
// Steady-state, an admitted invoke performs zero heap allocations —
// TestServeRequestZeroAlloc gates this in CI.

// invokeScratch is the pooled per-request state.
type invokeScratch struct {
	buf     []byte   // request body, truncated at maxInvokeBody
	out     []byte   // 200 response body under construction
	args    []uint64 // parsed argument bits
	results []uint64 // backing array handed to CallSpec.Results

	// Parsed request fields. module and function are views into buf on
	// the fast-parse path and owned copies after a stdlib fallback.
	module    []byte
	function  []byte
	fuel      uint64
	timeoutMs int64

	// Outcome, consumed by the HTTP glue: status 0 means the client is
	// gone and no response is written; StatusOK pairs with out; any
	// other status pairs with apiErr (and retryAfter for 429).
	status     int
	apiErr     apiError
	retryAfter time.Duration
}

var scratchPool = sync.Pool{New: func() any {
	return &invokeScratch{
		buf:     make([]byte, 0, 4096),
		out:     make([]byte, 0, 1024),
		args:    make([]uint64, 0, 16),
		results: make([]uint64, 16),
	}
}}

func getScratch() *invokeScratch   { return scratchPool.Get().(*invokeScratch) }
func putScratch(sc *invokeScratch) { scratchPool.Put(sc) }

// readBody drains r into the scratch buffer, truncating at
// maxInvokeBody like decodeInvokeRequest's io.LimitReader: either
// parser sees at most the first megabyte.
func (sc *invokeScratch) readBody(r io.Reader) error {
	sc.buf = sc.buf[:0]
	for len(sc.buf) < maxInvokeBody {
		if len(sc.buf) == cap(sc.buf) {
			sc.buf = append(sc.buf, 0)[:len(sc.buf)]
		}
		space := sc.buf[len(sc.buf):cap(sc.buf)]
		if over := len(sc.buf) + len(space) - maxInvokeBody; over > 0 {
			space = space[:len(space)-over]
		}
		n, err := r.Read(space)
		sc.buf = sc.buf[:len(sc.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fail records an error outcome.
func (sc *invokeScratch) fail(status int, code, msg string) {
	sc.status = status
	sc.apiErr = apiError{Code: code, Message: msg}
}

// invokeParser cursors over one request body. Every method reports
// false for anything outside the fast grammar, which sends the body to
// the strict stdlib decoder instead — the fast parser never has to be
// clever about errors, only honest about what it understood.
type invokeParser struct {
	b []byte
	i int
}

func (p *invokeParser) skipWS() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *invokeParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *invokeParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// str parses a plain JSON string with no escapes and no control
// characters, returning it as a view into the body.
func (p *invokeParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// u64 parses a bare non-negative JSON integer. Leading zeros, signs,
// fractions, exponents, and overflow all report false — the stdlib
// decoder owns their error messages.
func (p *invokeParser) u64() (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
		p.i++
	}
	n := p.i - start
	if n == 0 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	switch p.peek() {
	case '.', 'e', 'E':
		return 0, false
	}
	return v, true
}

func (p *invokeParser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// parseInvokeFast parses the published invoke-body shape in place,
// filling the scratch's request fields with views into sc.buf. It
// handles exactly what the API documents — an object of the five known
// fields in any order, plain strings, bare integers — and reports
// false on anything else (escapes, floats, negatives, unknown fields,
// malformed JSON, trailing data), so every rejection is worded by the
// strict stdlib decoder. FuzzServeRequest cross-checks the two parsers
// on every fuzz input.
func (sc *invokeScratch) parseInvokeFast() bool {
	p := invokeParser{b: sc.buf}
	sc.module, sc.function = nil, nil
	sc.args = sc.args[:0]
	sc.fuel, sc.timeoutMs = 0, 0

	p.skipWS()
	if !p.eat('{') {
		return false
	}
	p.skipWS()
	if !p.eat('}') {
		for {
			key, ok := p.str()
			if !ok {
				return false
			}
			p.skipWS()
			if !p.eat(':') {
				return false
			}
			p.skipWS()
			switch string(key) { // compiled without copying
			case "module":
				sc.module, ok = p.str()
			case "function":
				sc.function, ok = p.str()
			case "args":
				ok = p.parseArgs(sc)
			case "fuel":
				sc.fuel, ok = p.u64()
			case "timeout_ms":
				var v uint64
				if v, ok = p.u64(); ok && v <= math.MaxInt64 {
					sc.timeoutMs = int64(v)
				} else {
					ok = false
				}
			default:
				return false // unknown field: the stdlib decoder names it
			}
			if !ok {
				return false
			}
			p.skipWS()
			if p.eat(',') {
				p.skipWS()
				continue
			}
			if p.eat('}') {
				break
			}
			return false
		}
	}
	p.skipWS()
	return p.i == len(p.b)
}

// parseArgs parses the args array (or null). Duplicate "args" keys
// reset the slice, matching the stdlib's last-wins behavior.
func (p *invokeParser) parseArgs(sc *invokeScratch) bool {
	sc.args = sc.args[:0]
	if p.lit("null") {
		return true
	}
	if !p.eat('[') {
		return false
	}
	p.skipWS()
	if p.eat(']') {
		return true
	}
	for {
		v, ok := p.u64()
		if !ok {
			return false
		}
		sc.args = append(sc.args, v)
		p.skipWS()
		if p.eat(',') {
			p.skipWS()
			continue
		}
		return p.eat(']')
	}
}

// validate applies the same post-parse checks (and error text) as
// decodeInvokeRequest, so both parse paths reject identically.
func (sc *invokeScratch) validate() error {
	if len(sc.module) == 0 {
		return errors.New("missing field \"module\"")
	}
	if len(sc.function) == 0 {
		return errors.New("missing field \"function\"")
	}
	if sc.timeoutMs < 0 {
		return errors.New("negative timeout_ms")
	}
	return nil
}

// setFromRequest copies a stdlib-decoded request into the scratch
// (fallback path only; this allocates, the fast path does not).
func (sc *invokeScratch) setFromRequest(req *InvokeRequest) {
	sc.module = []byte(req.Module)
	sc.function = []byte(req.Function)
	sc.args = append(sc.args[:0], req.Args...)
	sc.fuel = req.Fuel
	sc.timeoutMs = req.TimeoutMs
}

// appendInvokeResponse renders the 200 body: the compact encoding/json
// form of InvokeResponse (TestInvokeWireContract holds it to that),
// with the events object built by walking the arch event table
// (non-zero entries only) instead of allocating a map.
func appendInvokeResponse(dst []byte, values []uint64, fuel uint64, ev *arch.Counter) []byte {
	dst = append(dst, `{"values":`...)
	if values == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"fuel":`...)
	dst = strconv.AppendUint(dst, fuel, 10)
	first := true
	for e := arch.Event(0); e < arch.NumEvents; e++ {
		n := ev.Get(e)
		if n == 0 {
			continue
		}
		if first {
			dst = append(dst, `,"events":{`...)
			first = false
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, e.String()...)
		dst = append(dst, `":`...)
		dst = strconv.AppendUint(dst, n, 10)
	}
	if !first {
		dst = append(dst, '}')
	}
	dst = append(dst, '}', '\n')
	return dst
}

// handleInvoke answers POST /v1/invoke: HTTP glue around the pooled
// invoke core.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r)
	tn.m.stripe().requests.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(r.Body); err != nil {
		tn.m.stripe().badRequest.Add(1)
		writeError(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: err.Error()})
		return
	}
	s.invokePooled(r.Context(), tn, sc)
	switch sc.status {
	case 0: // client gone: no one to answer
	case http.StatusOK:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(sc.out)
	default:
		if sc.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int((sc.retryAfter+time.Second-1)/time.Second)))
		}
		writeError(w, sc.status, sc.apiErr)
	}
}

// invokePooled runs one invoke body (already in sc.buf) through
// parse → lookup → admission → snapshot → call, leaving the outcome in
// sc. The admitted 200 path performs zero heap allocations.
func (s *Server) invokePooled(ctx context.Context, tn *tenant, sc *invokeScratch) {
	sc.status = 0
	sc.apiErr = apiError{}
	sc.retryAfter = 0
	tm := tn.m.stripe()

	if !sc.parseInvokeFast() {
		req, err := decodeInvokeRequest(bytes.NewReader(sc.buf))
		if err != nil {
			tm.badRequest.Add(1)
			sc.fail(http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		sc.setFromRequest(req)
	}
	if err := sc.validate(); err != nil {
		tm.badRequest.Add(1)
		sc.fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	entry, ok := s.reg.lookupBytes(sc.module)
	if !ok {
		tm.badRequest.Add(1)
		sc.fail(http.StatusNotFound, "module_not_found",
			fmt.Sprintf("no module %q is registered", sc.module))
		return
	}
	em := entry.m.stripe()
	em.requests.Add(1)
	sig, ok := entry.funcs[string(sc.function)] // no-copy map index
	if !ok {
		tm.badRequest.Add(1)
		em.badRequest.Add(1)
		sc.fail(http.StatusNotFound, "function_not_found",
			fmt.Sprintf("module %q exports no function %q", sc.module, sc.function))
		return
	}
	if len(sc.args) != sig.params {
		tm.badRequest.Add(1)
		em.badRequest.Add(1)
		sc.fail(http.StatusUnprocessableEntity, "bad_arity",
			fmt.Sprintf("%s takes %d arguments, got %d", sig.name, sig.params, len(sc.args)))
		return
	}

	// Admission: the tenant's own concurrency gate, before any engine
	// resource is touched. The wait rides the request context, so a
	// disconnected client leaves the queue immediately.
	err := tn.admit(ctx)
	switch {
	case errors.Is(err, errQueueFull):
		tm.rejected.Add(1)
		em.rejected.Add(1)
		sc.retryAfter = tn.policy.retryAfter()
		sc.fail(http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("tenant %q has %d invocations in flight and a full queue", tn.name, tn.policy.MaxConcurrent))
		sc.apiErr.RetryAfterMs = sc.retryAfter.Milliseconds()
		return
	case err != nil: // client disconnected while queued
		tm.canceled.Add(1)
		em.canceled.Add(1)
		return
	}
	defer tn.release()

	tn.active.Add(1)
	defer tn.active.Add(-1)

	// Pre-initialization: the first admitted invocation of an ?init=
	// module builds the post-init snapshot (charging the one-time init
	// fuel to this tenant); everyone after forks the frozen image free.
	eng := s.engineFor(tn)
	if err := s.ensureSnapshot(ctx, tn, entry, eng); err != nil {
		var trap *exec.Trap
		switch {
		case errors.As(err, &trap):
			tm.traps.Add(1)
			em.traps.Add(1)
			sc.fail(http.StatusUnprocessableEntity, "init_trap",
				fmt.Sprintf("pre-initialization %q trapped: %v", entry.initFn, err))
			sc.apiErr.Trap = trap.Code.String()
		case ctx.Err() != nil:
			tm.canceled.Add(1)
			em.canceled.Add(1)
		default:
			tm.failures.Add(1)
			em.failures.Add(1)
			sc.fail(http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}

	spec := tn.callSpec(sc.fuel, time.Duration(sc.timeoutMs)*time.Millisecond)
	spec.Results = sc.results
	res, err := eng.CallWith(ctx, entry.mod, sig.name, sc.args, spec)

	// Fuel is charged win or lose: a trapped call consumed real events.
	tm.fuel.Add(res.Fuel)
	em.fuel.Add(res.Fuel)

	switch {
	case err == nil:
		tm.ok.Add(1)
		em.ok.Add(1)
		sc.out = appendInvokeResponse(sc.out[:0], res.Values, res.Fuel, &res.Events)
		sc.status = http.StatusOK
	case cage.IsInterrupted(err):
		if ctx.Err() != nil {
			// The client is gone; the guest was interrupted at the next
			// checkpoint and its instance reset — just account for it.
			tm.canceled.Add(1)
			em.canceled.Add(1)
			return
		}
		tm.interrupted.Add(1)
		em.interrupted.Add(1)
		sc.fail(http.StatusRequestTimeout, "timeout",
			fmt.Sprintf("call exceeded its %v budget",
				tn.policy.effectiveTimeout(time.Duration(sc.timeoutMs)*time.Millisecond)))
		sc.apiErr.Trap = exec.TrapInterrupted.String()
	default:
		var trap *exec.Trap
		if errors.As(err, &trap) {
			tm.traps.Add(1)
			em.traps.Add(1)
			sc.fail(http.StatusUnprocessableEntity, "guest_trap", err.Error())
			sc.apiErr.Trap = trap.Code.String()
			return
		}
		tm.failures.Add(1)
		em.failures.Add(1)
		sc.fail(http.StatusInternalServerError, "internal", err.Error())
	}
}
