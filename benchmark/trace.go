package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the client span's id to the handler wrapper, which
// makes the serve.handler span its child.
const spanHeader = "X-Bench-Span"

// span is one timed call made from the benchmark into a layer. Parent 0
// means none; ids are 1-based positions in the recorder. Req ties the
// spans of one op together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was made.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) micros() float64 { return float64(s.End-s.Start) / 1e3 }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced rounds run the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose two instants were taken by the caller.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) reqOf(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Req
}

// childOf finds the first span recorded below parent (0 when there is
// none). The handler's span follows its client span closely, so the search
// runs forward from the parent.
func (r *recorder) childOf(parent int) int {
	if parent == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans[parent:] {
		if s.Parent == parent {
			return s.ID
		}
	}
	return 0
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanHandler wraps the daemon's handler. A request that carries
// spanHeader gets a span named after its route, child of the client's.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if h.rec == nil || err != nil || parent <= 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	name := "serve.handler"
	if r.URL.Path == "/v1/modules" {
		name = "serve.upload"
	}
	s := h.rec.start(name, parent, h.rec.reqOf(parent))
	h.next.ServeHTTP(w, r)
	h.rec.end(s)
}

// selfTimes returns, per span, its duration minus the part of it its
// children cover, in microseconds. Children of one parent here never
// overlap (they are sequential calls), so the part covered is the sum.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.micros()
		if s.Parent != 0 {
			self[s.Parent] -= s.micros()
		}
	}
	return self
}

// byName groups span durations (or self times when self is non-nil) by
// span name and the class of the op they belong to.
func byName(spans []span, self map[int]float64, classOf func(req int) int) map[string]map[int][]float64 {
	out := make(map[string]map[int][]float64)
	for _, s := range spans {
		v := s.micros()
		if self != nil {
			v = self[s.ID]
		}
		m := out[s.Name]
		if m == nil {
			m = make(map[int][]float64)
			out[s.Name] = m
		}
		c := classOf(s.Req)
		m[c] = append(m[c], v)
	}
	return out
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Env      envBlock `json:"env"`
	Workload string   `json:"workload"`
	// Classes names the request classes; Ops gives each req's class.
	Classes []string `json:"classes"`
	Ops     []int    `json:"op_class"`
	Spans   []span   `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
