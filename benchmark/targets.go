package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"cage"
)

// reply is what one op came back with. Targets fill lat and the raw
// outcome while the clock runs; decode fills the rest after it stops.
type reply struct {
	lat    time.Duration
	status int
	body   []byte // HTTP targets: the raw response body
	err    error

	value   uint64
	fuel    uint64
	ev      events
	memTrap bool

	allocCalls uint64 // instTarget only
	guest      time.Duration
	// spans are the ids this target recorded for the op, handed to the
	// next replay depth as parents.
	spans opSpans
	res   [1]uint64 // backs CallSpec.Results
}

// opSpans names the spans of one op a deeper replay hangs below.
type opSpans struct{ upload, invoke int }

// target is one depth at which the same op sequence is driven.
type target interface {
	// load registers a module at setup; ops address it by position.
	load(src string, req int) error
	// do runs one op. parents are the spans the previous depth recorded
	// for the same op (zero when untraced or outermost).
	do(o *op, req int, parents opSpans, out *reply)
	counters() serverCounters
	modules() int
	// setRecorder switches span recording on (non-nil) or off.
	setRecorder(rec *recorder)
	close()
}

// ---- depth 0: the HTTP wire contract over loopback ----

type httpTarget struct {
	srv     *server
	httpSrv *http.Server
	done    chan struct{} // closed when Serve returns
	// conns holds one keep-alive connection per client; a client takes
	// one for the length of a request.
	conns  chan *wireConn
	ids    []string
	loaded int
	rec    *recorder
}

// wireConn is a bare HTTP/1.1 client: one connection, requests written
// by hand, responses parsed by net/http. http.Client would put two more
// goroutines (its read and write loops) between the benchmark and the
// daemon, and on two cores their scheduling is most of the noise.
type wireConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func newHTTPTarget(preset string, clients int, rec *recorder) (*httpTarget, error) {
	srv, err := newServer(preset)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.close()
		return nil, err
	}
	t := &httpTarget{
		srv:     srv,
		httpSrv: &http.Server{Handler: &spanHandler{next: srv.handler(), rec: rec}},
		done:    make(chan struct{}),
		conns:   make(chan *wireConn, clients),
		rec:     rec,
	}
	go func() {
		defer close(t.done)
		t.httpSrv.Serve(ln) // returns ErrServerClosed at close
	}()
	for i := 0; i < clients; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns <- &wireConn{c: c, br: bufio.NewReader(c)}
	}
	return t, nil
}

func (t *httpTarget) close() {
	for len(t.conns) > 0 {
		(<-t.conns).c.Close()
	}
	t.httpSrv.Close()
	<-t.done
	t.srv.close()
}

func (t *httpTarget) counters() serverCounters  { return t.srv.counters() }
func (t *httpTarget) modules() int              { return t.loaded }
func (t *httpTarget) setRecorder(rec *recorder) { t.rec = rec }

// post sends one request and reads the whole body.
func (t *httpTarget) post(path string, body []byte, parent int) (int, []byte, error) {
	wc := <-t.conns
	defer func() { t.conns <- wc }()
	b := append(wc.buf[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if parent != 0 {
		b = append(b, "\r\n"+spanHeader+": "...)
		b = strconv.AppendInt(b, int64(parent), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	wc.buf = b
	if _, err := wc.c.Write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(wc.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// upload registers source and returns the module id.
func (t *httpTarget) upload(src string, req int) (id string, span int, err error) {
	span = t.rec.start("client.upload", 0, req)
	status, body, err := t.post("/v1/modules", []byte(src), span)
	t.rec.end(span)
	if err != nil {
		return "", span, err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return "", span, fmt.Errorf("upload: status %d: %s", status, body)
	}
	var up struct {
		Module string `json:"module"`
	}
	if err := json.Unmarshal(body, &up); err != nil || up.Module == "" {
		return "", span, fmt.Errorf("upload: bad response %q: %v", body, err)
	}
	t.loaded++
	return up.Module, span, nil
}

func (t *httpTarget) load(src string, req int) error {
	id, _, err := t.upload(src, req)
	t.ids = append(t.ids, id)
	return err
}

func invokeBody(id, fn string, args []uint64) []byte {
	b := make([]byte, 0, 160)
	b = append(b, `{"module":"`...)
	b = append(b, id...)
	b = append(b, `","function":"`...)
	b = append(b, fn...)
	b = append(b, `","args":[`...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, a, 10)
	}
	return append(b, "]}"...)
}

func (t *httpTarget) do(o *op, req int, _ opSpans, out *reply) {
	start := time.Now()
	var id string
	if o.src != "" {
		id, out.spans.upload, out.err = t.upload(o.src, req)
		if out.err != nil {
			return
		}
	} else {
		id = t.ids[o.mod]
	}
	out.spans.invoke = t.rec.start("client.http", 0, req)
	out.status, out.body, out.err = t.post("/v1/invoke", invokeBody(id, o.fn, o.args), out.spans.invoke)
	t.rec.end(out.spans.invoke)
	out.lat = time.Since(start)
}

// The two trap names of the wire contract that mean a memory-safety
// violation (MTE tag mismatch, invalid segment operation).
var memorySafetyTraps = map[string]bool{"MTE tag mismatch": true, "invalid segment operation": true}

// decode parses an HTTP reply after the clock has stopped.
func (r *reply) decode() {
	if r.err != nil || r.body == nil {
		return
	}
	switch r.status {
	case http.StatusOK:
		var ok struct {
			Values []uint64          `json:"values"`
			Fuel   uint64            `json:"fuel"`
			Events map[string]uint64 `json:"events"`
		}
		if err := json.Unmarshal(r.body, &ok); err != nil {
			r.err = fmt.Errorf("bad 200 body %q: %w", r.body, err)
			return
		}
		if len(ok.Values) > 0 {
			r.value = ok.Values[0]
		}
		r.fuel = ok.Fuel
		r.ev, r.err = eventsFromWire(ok.Events)
	case http.StatusUnprocessableEntity:
		var bad struct {
			Error struct {
				Code string `json:"code"`
				Trap string `json:"trap"`
			} `json:"error"`
		}
		if err := json.Unmarshal(r.body, &bad); err != nil {
			r.err = fmt.Errorf("bad 422 body %q: %w", r.body, err)
			return
		}
		r.memTrap = bad.Error.Code == "guest_trap" && memorySafetyTraps[bad.Error.Trap]
	}
}

// ---- depth 1: Engine.CallWith, the embedder surface ----

type callTarget struct {
	eng  *cage.Engine
	mods []*cage.Module
	rec  *recorder
}

func newCallTarget(preset string, rec *recorder) (*callTarget, error) {
	cfg, err := cage.ConfigByName(preset)
	if err != nil {
		return nil, err
	}
	return &callTarget{eng: cage.NewEngine(cfg), rec: rec}, nil
}

func (t *callTarget) close()                    { t.eng.Close() }
func (t *callTarget) modules() int              { return len(t.mods) }
func (t *callTarget) setRecorder(rec *recorder) { t.rec = rec }

func (t *callTarget) counters() serverCounters {
	st := t.eng.Stats()
	return serverCounters{
		spawned: st.Pools.Spawned, restores: st.Snapshots.Restores,
		progHits: st.Programs.Hits, progMisses: st.Programs.Misses,
		modHits: st.Cache.Hits, modMisses: st.Cache.Misses,
	}
}

func (t *callTarget) load(src string, _ int) error {
	m, err := t.eng.CompileSource(src)
	t.mods = append(t.mods, m)
	return err
}

// module resolves the op's module, compiling a coldstart source first.
func (t *callTarget) module(o *op, req, parent int, out *reply) *cage.Module {
	if o.src == "" {
		return t.mods[o.mod]
	}
	out.spans.upload = t.rec.start("cage.compile", parent, req)
	m, err := t.eng.CompileSource(o.src)
	t.rec.end(out.spans.upload)
	out.err = err
	return m
}

// settle turns a call's outcome into the reply's decoded fields.
func (r *reply) settle(res cage.Result, err error) {
	r.fuel, r.ev = res.Fuel, res.Events
	switch {
	case err == nil:
		r.status = http.StatusOK
		if len(res.Values) > 0 {
			r.value = res.Values[0]
		}
	case cage.IsMemorySafetyViolation(err):
		r.status, r.memTrap = http.StatusUnprocessableEntity, true
	default:
		r.err = err
	}
}

func (t *callTarget) do(o *op, req int, parents opSpans, out *reply) {
	start := time.Now()
	m := t.module(o, req, parents.upload, out)
	if out.err != nil {
		return
	}
	out.spans.invoke = t.rec.start("cage.call", parents.invoke, req)
	res, err := t.eng.CallWith(background, m, o.fn, o.args, cage.CallSpec{Results: out.res[:0]})
	t.rec.end(out.spans.invoke)
	out.lat = time.Since(start)
	out.settle(res, err)
}

// ---- depth 2: checkout, guest call and checkin taken apart ----

type instTarget struct{ callTarget }

func newInstTarget(preset string, rec *recorder) (*instTarget, error) {
	ct, err := newCallTarget(preset, rec)
	if err != nil {
		return nil, err
	}
	return &instTarget{*ct}, nil
}

func (t *instTarget) do(o *op, req int, parents opSpans, out *reply) {
	m := t.module(o, req, 0, out)
	if out.err != nil {
		return
	}
	var (
		entered, called time.Time
		res             cage.Result
		callErr         error
	)
	start := time.Now()
	err := t.eng.WithInstanceContext(background, m, func(inst *cage.Instance) error {
		entered = time.Now()
		res, callErr = inst.Call(background, o.fn, o.args)
		called = time.Now()
		out.allocCalls = allocCalls(inst)
		return nil
	})
	end := time.Now()
	if err != nil {
		out.err = errors.Join(errors.New("checkout failed"), err)
		return
	}
	out.lat, out.guest = end.Sub(start), called.Sub(entered)
	t.rec.add("engine.checkout", parents.invoke, req, start, entered)
	t.rec.add("exec.guest", parents.invoke, req, entered, called)
	t.rec.add("engine.checkin", parents.invoke, req, called, end)
	out.settle(res, callErr)
}

var background = context.Background()
