package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cage"
)

// guestSource is the shared test guest: arithmetic, a memory probe for
// isolation tests, a deterministic trap, and an infinite loop.
const guestSource = `
extern char* malloc(long n);

long add(long a, long b) { return a + b; }

// probe reads the first word of a fresh heap chunk before writing v
// into it. On a correctly reset pooled instance the previous content
// is always zero; any other value is another invocation's heap leaking
// through recycling.
long probe(long v) {
    long* p = (long*)malloc(8);
    long old = *p;
    *p = v;
    return old;
}

long crash(long n) { return n / (n - n); }

long spin(long n) {
    while (1) { n = n + 1; }
    return n;
}
`

// newTestServer stands up a Server over real loopback HTTP.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// postJSON posts raw bytes and decodes the response body into out
// (which may be nil), returning the response.
func postJSON(t *testing.T, ts *httptest.Server, path, tenant string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s: Content-Type = %q, want application/json", path, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp
}

func uploadSource(t *testing.T, ts *httptest.Server, tenant, src string) UploadResponse {
	t.Helper()
	var up UploadResponse
	resp := postJSON(t, ts, "/v1/modules", tenant, []byte(src), &up)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	return up
}

func invoke(t *testing.T, ts *httptest.Server, tenant string, req InvokeRequest) (*http.Response, InvokeResponse, errorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	resp := postJSON(t, ts, "/v1/invoke", tenant, body, &raw)
	var ok InvokeResponse
	var eb errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("invoke: decoding 200 body: %v", err)
		}
	} else if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("invoke: decoding error body: %v", err)
	}
	return resp, ok, eb
}

func TestUploadInvokeRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, Options{Config: cage.FullHardening(), ConfigName: "full"})

	up := uploadSource(t, ts, "", guestSource)
	if !strings.HasPrefix(up.Module, "sha256:") {
		t.Errorf("module id %q is not content-addressed", up.Module)
	}
	if up.Cached {
		t.Error("first upload reported cached")
	}
	want := []string{"add", "crash", "probe", "spin"}
	if fmt.Sprint(up.Exports) != fmt.Sprint(want) {
		t.Errorf("exports = %v, want %v", up.Exports, want)
	}

	// Same content again: same id, served from the registry.
	again := uploadSource(t, ts, "", guestSource)
	if again.Module != up.Module || !again.Cached {
		t.Errorf("re-upload: got (%q, cached=%t), want (%q, cached=true)", again.Module, again.Cached, up.Module)
	}

	resp, res, _ := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "add", Args: []uint64{3, 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke add: status %d", resp.StatusCode)
	}
	if len(res.Values) != 1 || res.Values[0] != 7 {
		t.Errorf("add(3,4) = %v, want [7]", res.Values)
	}
	if res.Fuel == 0 || len(res.Events) == 0 {
		t.Errorf("telemetry missing: fuel=%d events=%v", res.Fuel, res.Events)
	}
}

func TestUploadBinaryModule(t *testing.T) {
	ts, _ := newTestServer(t, Options{Config: cage.SandboxingOnly(), ConfigName: "sandbox"})

	// Compile out-of-band and upload the binary image instead of source.
	tc := cage.NewToolchain(cage.SandboxingOnly())
	mod, err := tc.CompileSource(`long twice(long n) { return n * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := mod.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var up UploadResponse
	resp := postJSON(t, ts, "/v1/modules", "", bin, &up)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary upload: status %d", resp.StatusCode)
	}
	r2, res, _ := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "twice", Args: []uint64{21}})
	if r2.StatusCode != http.StatusOK || res.Values[0] != 42 {
		t.Fatalf("twice(21): status %d values %v", r2.StatusCode, res.Values)
	}
}

// TestErrorMapping pins the structured-error contract: every failure
// mode maps to a stable (status, code) pair with a JSON body.
func TestErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t, Options{Config: cage.FullHardening(), ConfigName: "full"})
	up := uploadSource(t, ts, "", guestSource)

	t.Run("malformed-json", func(t *testing.T) {
		var eb errorBody
		resp := postJSON(t, ts, "/v1/invoke", "", []byte(`{"module":`), &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Errorf("got (%d, %q), want (400, bad_request)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("unknown-field", func(t *testing.T) {
		var eb errorBody
		resp := postJSON(t, ts, "/v1/invoke", "", []byte(`{"module":"x","function":"f","argz":[1]}`), &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Errorf("got (%d, %q), want (400, bad_request)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("unknown-module", func(t *testing.T) {
		resp, _, eb := invoke(t, ts, "", InvokeRequest{Module: "sha256:feed", Function: "add", Args: []uint64{1, 2}})
		if resp.StatusCode != http.StatusNotFound || eb.Error.Code != "module_not_found" {
			t.Errorf("got (%d, %q), want (404, module_not_found)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("unknown-function", func(t *testing.T) {
		resp, _, eb := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "nope"})
		if resp.StatusCode != http.StatusNotFound || eb.Error.Code != "function_not_found" {
			t.Errorf("got (%d, %q), want (404, function_not_found)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("bad-arity", func(t *testing.T) {
		resp, _, eb := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "add", Args: []uint64{1}})
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "bad_arity" {
			t.Errorf("got (%d, %q), want (422, bad_arity)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("guest-trap", func(t *testing.T) {
		resp, _, eb := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "crash", Args: []uint64{5}})
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "guest_trap" {
			t.Errorf("got (%d, %q), want (422, guest_trap)", resp.StatusCode, eb.Error.Code)
		}
		if eb.Error.Trap != "integer divide by zero" {
			t.Errorf("trap = %q, want %q", eb.Error.Trap, "integer divide by zero")
		}
	})

	t.Run("fuel-exhausted", func(t *testing.T) {
		resp, _, eb := invoke(t, ts, "", InvokeRequest{Module: up.Module, Function: "spin", Args: []uint64{0}, Fuel: 10_000})
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "guest_trap" {
			t.Errorf("got (%d, %q), want (422, guest_trap)", resp.StatusCode, eb.Error.Code)
		}
		if eb.Error.Trap != "fuel exhausted" {
			t.Errorf("trap = %q, want %q", eb.Error.Trap, "fuel exhausted")
		}
	})

	t.Run("invalid-binary", func(t *testing.T) {
		var eb errorBody
		resp := postJSON(t, ts, "/v1/modules", "", []byte("\x00asm\x01garbage"), &eb)
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "invalid_module" {
			t.Errorf("got (%d, %q), want (422, invalid_module)", resp.StatusCode, eb.Error.Code)
		}
	})

	t.Run("compile-error", func(t *testing.T) {
		var eb errorBody
		resp := postJSON(t, ts, "/v1/modules", "", []byte("long f( {"), &eb)
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "compile_error" {
			t.Errorf("got (%d, %q), want (422, compile_error)", resp.StatusCode, eb.Error.Code)
		}
	})
}

// TestMultiTenantIsolation races 16 goroutines across 4 tenants against
// one pooled module and proves two isolation properties: no invocation
// ever observes another's heap through instance recycling (the probe
// always reads zero), and every tenant's metrics count exactly its own
// requests. Run under -race in CI.
func TestMultiTenantIsolation(t *testing.T) {
	// MTE sandboxing alone: a 15-tag budget, so the 16 goroutines
	// genuinely share and recycle pooled instances.
	ts, srv := newTestServer(t, Options{Config: cage.SandboxingOnly(), ConfigName: "sandbox"})
	up := uploadSource(t, ts, "t0", guestSource)

	const (
		tenantsN   = 4
		perTenant  = 4  // goroutines per tenant
		perRoutine = 25 // requests per goroutine
	)
	var wg sync.WaitGroup
	errCh := make(chan error, tenantsN*perTenant)
	for ti := 0; ti < tenantsN; ti++ {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(ti, g int) {
				defer wg.Done()
				client := &Client{BaseURL: ts.URL, Tenant: fmt.Sprintf("t%d", ti)}
				for i := 0; i < perRoutine; i++ {
					// A tenant-distinct, never-zero secret: if any other
					// invocation reads it back, isolation broke.
					secret := uint64(ti+1)<<32 | uint64(g)<<16 | uint64(i+1)
					res, err := client.Invoke(InvokeRequest{Module: up.Module, Function: "probe", Args: []uint64{secret}})
					if err != nil {
						errCh <- fmt.Errorf("tenant %d: %w", ti, err)
						return
					}
					if res.Values[0] != 0 {
						errCh <- fmt.Errorf("tenant %d read stale heap word %#x from a recycled instance", ti, res.Values[0])
						return
					}
				}
			}(ti, g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	stats := srv.StatsSnapshot()
	for ti := 0; ti < tenantsN; ti++ {
		name := fmt.Sprintf("t%d", ti)
		tn, ok := stats.Tenants[name]
		if !ok {
			t.Fatalf("no stats for tenant %s", name)
		}
		wantReqs := uint64(perTenant * perRoutine)
		if tn.Requests != wantReqs || tn.OK != wantReqs {
			t.Errorf("tenant %s: requests=%d ok=%d, want %d each (metrics leaked across tenants)", name, tn.Requests, tn.OK, wantReqs)
		}
		if tn.Fuel == 0 {
			t.Errorf("tenant %s: no fuel accounted", name)
		}
	}
	mod := stats.Modules[up.Module]
	wantTotal := uint64(tenantsN * perTenant * perRoutine)
	if mod.OK != wantTotal {
		t.Errorf("module ok=%d, want %d", mod.OK, wantTotal)
	}
	if mod.Pool.Live > 15 {
		t.Errorf("pool live=%d exceeds the §7.4 tag budget", mod.Pool.Live)
	}
	if mod.Pool.Recycled == 0 {
		t.Error("no instance was ever recycled — the pool is not pooling")
	}
}

// TestStatsAndMetrics pins the observability surface: cache counters,
// pool occupancy, and the Prometheus rendering.
func TestStatsAndMetrics(t *testing.T) {
	ts, srv := newTestServer(t, Options{Config: cage.Baseline64(), ConfigName: "baseline64"})
	up := uploadSource(t, ts, "obs", guestSource)
	// Registry source-index hit: answered before the engine is touched.
	if again := uploadSource(t, ts, "obs", guestSource); !again.Cached {
		t.Error("re-upload not served from the registry")
	}
	for i := 0; i < 3; i++ {
		resp, _, _ := invoke(t, ts, "obs", InvokeRequest{Module: up.Module, Function: "add", Args: []uint64{uint64(i), 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %d: status %d", i, resp.StatusCode)
		}
	}

	stats := srv.StatsSnapshot()
	if stats.Config != "baseline64" {
		t.Errorf("config label = %q", stats.Config)
	}
	if stats.ModuleCache.Misses != 1 {
		t.Errorf("module cache misses = %d, want 1 — the re-upload must not recompile", stats.ModuleCache.Misses)
	}
	if stats.ProgramCache.Misses == 0 {
		t.Error("no lowered program was ever built")
	}
	mod := stats.Modules[up.Module]
	if mod.Pool.Spawned == 0 || mod.Pool.Idle == 0 {
		t.Errorf("pool snapshot %+v: expected a spawned, checked-in instance", mod.Pool)
	}
	if got := stats.Tenants["obs"].OK; got != 3 {
		t.Errorf("tenant ok=%d, want 3", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	prom := buf.String()
	for _, w := range []string{
		`cage_requests_total{tenant="obs",outcome="ok"} 3`,
		`cage_cache_hits_total{cache="module"}`,
		fmt.Sprintf(`cage_pool_live{module=%q}`, up.Module),
		`# TYPE cage_queue_depth gauge`,
	} {
		if !strings.Contains(prom, w) {
			t.Errorf("/metrics output missing %q", w)
		}
	}

	// /healthz and module listing round out the read-only surface.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	lr, err := http.Get(ts.URL + "/v1/modules")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list struct {
		Modules []ModuleInfo `json:"modules"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Modules) != 1 || list.Modules[0].Module != up.Module {
		t.Errorf("module list = %+v, want the one registered module", list.Modules)
	}
}

// TestServerCloseDuringInvoke closes the server under an in-flight
// POST /v1/invoke. The request must still be answered — here with the
// clean fuel-exhaustion trap its budget guarantees — and the instance
// it held must be closed at checkin, returning full's single §7.4 tag.
func TestServerCloseDuringInvoke(t *testing.T) {
	ts, srv := newTestServer(t, Options{Config: cage.FullHardening(), ConfigName: "full"})
	up := uploadSource(t, ts, "", guestSource)

	type answer struct {
		status int
		body   errorBody
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		var a answer
		body := fmt.Sprintf(`{"module":%q,"function":"spin","args":[0],"fuel":3000000}`, up.Module)
		resp, err := http.Post(ts.URL+"/v1/invoke", "application/json", strings.NewReader(body))
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a.status = resp.StatusCode
		a.err = json.NewDecoder(resp.Body).Decode(&a.body)
		done <- a
	}()

	// Wait for the checkout: one live instance, none idle.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if s := srv.Engine().Stats().Pools; s.Live == 1 && s.Idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the invoke never checked an instance out")
		}
	}
	srv.Close()

	a := <-done
	if a.err != nil {
		t.Fatalf("invoke across Close: %v", a.err)
	}
	if a.status != http.StatusUnprocessableEntity || a.body.Error.Code != "guest_trap" || a.body.Error.Trap != "fuel exhausted" {
		t.Errorf("invoke across Close = %d %+v, want the 422 fuel-exhausted trap", a.status, a.body.Error)
	}
	// A closed engine still counts its closed pools, so this says the
	// instance in flight was closed at its checkin; the tag check below
	// catches a leaked one too.
	if s := srv.Engine().Stats().Pools; s.Live != 0 || s.Idle != 0 {
		t.Errorf("after Close: Live=%d Idle=%d, want 0/0", s.Live, s.Idle)
	}
	mod, err := srv.Engine().CompileSource(guestSource)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := srv.Engine().Runtime().Instantiate(mod)
	if err != nil {
		t.Fatalf("the in-flight instance's sandbox tag was not released: %v", err)
	}
	inst.Close()
}
