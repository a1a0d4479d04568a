package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cage"
	"cage/internal/arch"
)

// TestServeRequestZeroAlloc is the serve-layer CI gate: one admitted
// invoke — tenant resolution, body parse, module/function lookup,
// admission, pooled checkout, guest call, response encode — performs
// zero steady-state heap allocations when the tenant policy carries no
// fuel or timeout bound and the context is not cancellable. This is
// the contract the whole hot path exists for; any regression here is a
// per-request allocation at serving rates.
func TestServeRequestZeroAlloc(t *testing.T) {
	if raceServeEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, err := New(Options{
		Config:       cage.SandboxingOnly(),
		ConfigName:   "sandbox",
		DefaultQuota: QuotaPolicy{MaxConcurrent: 8, MaxQueue: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Register through the real handler once (setup may allocate).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/modules", bytes.NewReader([]byte(guestSource))))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d", rec.Code)
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/invoke", nil)
	tn := srv.tenantFor(req)
	body := fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, up.Module)
	ctx := context.Background()

	sc := getScratch()
	defer putScratch(sc)
	sc.buf = append(sc.buf[:0], body...)

	// Warm: spawn the instance, build the pool, publish every snapshot
	// map, and verify the response while we are at it.
	srv.invokePooled(ctx, tn, sc)
	if sc.status != http.StatusOK {
		t.Fatalf("warm invoke: status %d (%+v)", sc.status, sc.apiErr)
	}
	var resp InvokeResponse
	if err := json.Unmarshal(sc.out, &resp); err != nil {
		t.Fatalf("response %q is not JSON: %v", sc.out, err)
	}
	if len(resp.Values) != 1 || resp.Values[0] != 7 {
		t.Fatalf("add(3,4) = %v, want [7]", resp.Values)
	}
	if resp.Fuel == 0 || len(resp.Events) == 0 {
		t.Fatalf("telemetry missing: fuel=%d events=%v", resp.Fuel, resp.Events)
	}

	if n := testing.AllocsPerRun(500, func() {
		srv.invokePooled(ctx, tn, sc)
		if sc.status != http.StatusOK {
			panic("invoke failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("admitted invoke allocates %v/op steady-state, want 0", n)
	}
}

// BenchmarkServeRequest prices one admitted invoke through the full
// hot path (parse, lookup, admission, pooled checkout, guest call,
// encode), the serve-layer companion to the engine-layer checkout and
// cache benchmarks.
func BenchmarkServeRequest(b *testing.B) {
	srv, err := New(Options{Config: cage.SandboxingOnly(), ConfigName: "sandbox"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/modules", bytes.NewReader([]byte(guestSource))))
	if rec.Code != http.StatusCreated {
		b.Fatalf("upload: status %d", rec.Code)
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		b.Fatal(err)
	}
	tn := srv.tenantFor(httptest.NewRequest(http.MethodPost, "/v1/invoke", nil))
	sc := getScratch()
	defer putScratch(sc)
	sc.buf = append(sc.buf[:0], fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, up.Module)...)
	ctx := context.Background()
	srv.invokePooled(ctx, tn, sc)
	if sc.status != http.StatusOK {
		b.Fatalf("status %d (%+v)", sc.status, sc.apiErr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.invokePooled(ctx, tn, sc)
	}
}

// TestInvokeWireContract pins what POST /v1/invoke answers to a corpus
// of well-formed, trapping, and malformed bodies: status, error code,
// trap name, and return values are literals recorded from the stdlib
// handler this path replaced, so the pooled parser/encoder cannot drift
// from the published contract. The encoder's reference is encoding/json
// itself (the stdlib subtest).
func TestInvokeWireContract(t *testing.T) {
	ts, _ := newTestServer(t, Options{
		Config:       cage.SandboxingOnly(),
		ConfigName:   "sandbox",
		DefaultQuota: QuotaPolicy{Fuel: 1_000_000, MaxConcurrent: 4, MaxQueue: 4},
	})
	mod := uploadSource(t, ts, "", guestSource).Module

	cases := []struct {
		body   string
		status int
		code   string
		trap   string
		values []uint64
	}{
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, mod), 200, "", "", []uint64{7}},
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4],"fuel":100000}`, mod), 200, "", "", []uint64{7}},
		{fmt.Sprintf(`  {  "function" : "add" , "module" : %q , "args" : [ 1 , 2 ] }  `, mod), 200, "", "", []uint64{3}},
		{fmt.Sprintf(`{"module":%q,"function":"crash","args":[5]}`, mod), 422, "guest_trap", "integer divide by zero", nil},
		{fmt.Sprintf(`{"module":%q,"function":"spin","args":[0],"fuel":10000}`, mod), 422, "guest_trap", "fuel exhausted", nil},
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[3]}`, mod), 422, "bad_arity", "", nil},          // bad arity
		{fmt.Sprintf(`{"module":%q,"function":"nope","args":[]}`, mod), 404, "function_not_found", "", nil}, // unknown function
		{fmt.Sprintf(`{"module":%q,"function":"add","args":null}`, mod), 422, "bad_arity", "", nil},         // null args
		{fmt.Sprintf(`{"module":%q,"function":"add","argz":[1,2]}`, mod), 400, "bad_request", "", nil},      // unknown field
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[1.5,2]}`, mod), 400, "bad_request", "", nil},    // float arg
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[-1,2]}`, mod), 400, "bad_request", "", nil},     // negative arg
		{fmt.Sprintf(`{"module":%q,"function":"add","args":[01,2]}`, mod), 400, "bad_request", "", nil},     // leading zero
		{fmt.Sprintf(`{"module":%q,"function":"add"}{"x":1}`, mod), 400, "bad_request", "", nil},            // trailing data
		{fmt.Sprintf(`{"module":%q,"function":"add","timeout_ms":-5}`, mod), 400, "bad_request", "", nil},   // negative timeout
		{`{"module":"sha256:x","function":"add","args":[]}`, 404, "module_not_found", "", nil},              // malformed id
		{`{"module":"sha256:feed","function":"add","args":[1,2]}`, 404, "module_not_found", "", nil},        // unknown module
		{`{"module":"","function":""}`, 400, "bad_request", "", nil},
		{`{"function":"add"}`, 400, "bad_request", "", nil},
		{`{}`, 400, "bad_request", "", nil},
		{`{`, 400, "bad_request", "", nil},
		{``, 400, "bad_request", "", nil},
		{`[]`, 400, "bad_request", "", nil},
		{`{"module":"m","function":"f","args":[18446744073709551615]}`, 404, "module_not_found", "", nil},
		{`{"module":"m","function":"f","args":[18446744073709551616]}`, 400, "bad_request", "", nil}, // uint64 overflow
	}

	for i, tc := range cases {
		var raw json.RawMessage
		resp := postJSON(t, ts, "/v1/invoke", "ab", []byte(tc.body), &raw)
		if resp.StatusCode != tc.status {
			t.Errorf("body %d %q: status %d, want %d (%s)", i, tc.body, resp.StatusCode, tc.status, raw)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if tc.status == http.StatusOK {
			var ok InvokeResponse
			if err := dec.Decode(&ok); err != nil {
				t.Errorf("body %d: 200 body %s: %v", i, raw, err)
				continue
			}
			if fmt.Sprint(ok.Values) != fmt.Sprint(tc.values) {
				t.Errorf("body %d %q: values %v, want %v", i, tc.body, ok.Values, tc.values)
			}
			var sum uint64
			for _, n := range ok.Events {
				sum += n
			}
			if ok.Fuel == 0 || sum != ok.Fuel {
				t.Errorf("body %d: fuel %d, events %v sum to %d", i, ok.Fuel, ok.Events, sum)
			}
			continue
		}
		var eb errorBody
		if err := dec.Decode(&eb); err != nil {
			t.Errorf("body %d: error body %s: %v", i, raw, err)
			continue
		}
		if eb.Error.Code != tc.code || eb.Error.Trap != tc.trap || eb.Error.Message == "" {
			t.Errorf("body %d %q: got %+v, want code %q trap %q and a message", i, tc.body, eb.Error, tc.code, tc.trap)
		}
	}

	t.Run("stdlib", func(t *testing.T) {
		var some arch.Counter
		some.Add(arch.EvALU, 1)
		some.Add(arch.EvLocal, 4)
		some.Add(arch.EvBranch, math.MaxUint64)
		for _, tc := range []struct {
			values []uint64
			fuel   uint64
			events arch.Counter
		}{
			{nil, 0, arch.Counter{}},
			{[]uint64{}, 1, arch.Counter{}},
			{[]uint64{7}, 6, some},
			{[]uint64{0, math.MaxUint64, 1 << 53}, math.MaxUint64, some},
		} {
			got := appendInvokeResponse(nil, tc.values, tc.fuel, &tc.events)
			want, err := json.Marshal(InvokeResponse{Values: tc.values, Fuel: tc.fuel, Events: tc.events.EventCounts()})
			if err != nil {
				t.Fatal(err)
			}
			// Compare as generic documents with exact numbers: field
			// order and whitespace may differ, nothing else.
			doc := func(raw []byte) (v any) {
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.UseNumber()
				if err := dec.Decode(&v); err != nil {
					t.Fatalf("%s: %v", raw, err)
				}
				return v
			}
			if !reflect.DeepEqual(doc(got), doc(want)) {
				t.Errorf("appendInvokeResponse = %s, encoding/json = %s", got, want)
			}
		}
	})
}

// TestParseInvokeFastDifferential pins the fast parser against the
// strict stdlib decoder on a corpus of accept/fallback edges: whenever
// the fast parser accepts a body, the stdlib decoder must agree on
// every field (or reject with exactly the validation error the fast
// path raises itself).
func TestParseInvokeFastDifferential(t *testing.T) {
	bodies := []string{
		`{"module":"m","function":"f","args":[1,2,3],"fuel":9,"timeout_ms":50}`,
		`{"module":"m","function":"f"}`,
		`{"args":[7],"function":"f","module":"m"}`,
		`{"module":"m","function":"f","args":[]}`,
		`{"module":"m","function":"f","args":null}`,
		`{"module":"m","function":"f","args":[0]}`,
		`{"module":"m","function":"f","args":[18446744073709551615]}`,
		`  { "module" : "m" , "function" : "f" }  `,
		`{"module":"","function":""}`,
		`{}`,
		`{"module":"m","function":"f","args":[1],"args":[2,3]}`, // duplicate key: last wins
		`{"module":"m","module":"n","function":"f"}`,
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, body := range bodies {
		sc.buf = append(sc.buf[:0], body...)
		if !sc.parseInvokeFast() {
			t.Errorf("fast parser refused in-grammar body %q", body)
			continue
		}
		req, err := decodeInvokeRequest(bytes.NewReader([]byte(body)))
		if err != nil {
			verr := sc.validate()
			if verr == nil || verr.Error() != err.Error() {
				t.Errorf("body %q: stdlib rejects (%v), fast validate says %v", body, err, verr)
			}
			continue
		}
		if string(sc.module) != req.Module || string(sc.function) != req.Function ||
			sc.fuel != req.Fuel || sc.timeoutMs != req.TimeoutMs ||
			fmt.Sprint(sc.args) != fmt.Sprint([]uint64(req.Args)) {
			t.Errorf("body %q: fast (%q %q %v fuel=%d t=%d) != stdlib (%q %q %v fuel=%d t=%d)",
				body, sc.module, sc.function, sc.args, sc.fuel, sc.timeoutMs,
				req.Module, req.Function, req.Args, req.Fuel, req.TimeoutMs)
		}
	}

	// Out-of-grammar bodies must fall back, never mis-parse.
	for _, body := range []string{
		`{"module":"m","function":"f","args":[1.5]}`,
		`{"module":"m","function":"f","args":[-1]}`,
		`{"module":"m","function":"f","args":[01]}`,
		`{"module":"m","function":"f","args":[1e3]}`,
		`{"module":"m","function":"f","fuel":18446744073709551616}`,
		`{"module":"m","function":"f","timeout_ms":-5}`,
		`{"module":"m","function":"f","unknown":1}`,
		`{"module":"m\n","function":"f"}`,
		`{"module":"m","function":"f"}{"x":1}`,
		`{"module":"m","function":"f"} trailing`,
		`{"module":"m","function":"f",}`,
		`{"module":"m" "function":"f"}`,
		`[1,2]`,
		`{`,
		``,
	} {
		sc.buf = append(sc.buf[:0], body...)
		if sc.parseInvokeFast() {
			t.Errorf("fast parser accepted out-of-grammar body %q", body)
		}
	}
}
