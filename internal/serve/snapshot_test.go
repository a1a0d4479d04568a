package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cage"
)

// initGuestSource is a guest whose init function leaves observable
// state behind: every fork must see token==1234567 and inits==1 without
// ever re-running setup.
const initGuestSource = `
long token;
long inits;

long setup() {
    inits = inits + 1;
    token = 1234567;
    return token;
}

long get_token(long x) { return token + x; }

long init_count(long unused) { return inits; }
`

// TestInitSnapshotChargedOnce pins the pre-initialization contract:
// the ?init= function runs exactly once (at snapshot time, triggered by
// the first invocation), every request is served from a fork that sees
// the post-init state, and the one-time init fuel is charged to the
// triggering tenant only — never per request, never to other tenants.
func TestInitSnapshotChargedOnce(t *testing.T) {
	ts, srv := newTestServer(t, Options{Config: cage.FullHardening(), ConfigName: "full"})

	var up UploadResponse
	resp := postJSON(t, ts, "/v1/modules?init=setup", "alice", []byte(initGuestSource), &up)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload with init: status %d", resp.StatusCode)
	}
	if up.Init != "setup" {
		t.Fatalf("upload response init = %q, want %q", up.Init, "setup")
	}

	// Alice's requests: every fork sees the post-init globals.
	const aliceN = 5
	var aliceCallFuel, initFuel uint64
	for i := 0; i < aliceN; i++ {
		r, res, eb := invoke(t, ts, "alice", InvokeRequest{Module: up.Module, Function: "get_token", Args: []uint64{uint64(i)}})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("alice invoke %d: status %d (%+v)", i, r.StatusCode, eb.Error)
		}
		if want := uint64(1234567 + i); res.Values[0] != want {
			t.Fatalf("fork %d did not see the pre-initialized state: get_token = %d, want %d", i, res.Values[0], want)
		}
		aliceCallFuel += res.Fuel
		if i == 0 {
			// Whatever alice's tally holds beyond her first call's own
			// fuel is the one-time init charge.
			initFuel = srv.StatsSnapshot().Tenants["alice"].Fuel - res.Fuel
		}
	}

	// Bob arrives after the snapshot exists: his forks see the same
	// state, and init ran exactly once across both tenants.
	r, res, _ := invoke(t, ts, "bob", InvokeRequest{Module: up.Module, Function: "init_count", Args: []uint64{0}})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("bob invoke: status %d", r.StatusCode)
	}
	if res.Values[0] != 1 {
		t.Fatalf("init ran %d times, want exactly 1 (per-request re-init defeats the snapshot)", res.Values[0])
	}
	bobCallFuel := res.Fuel

	stats := srv.StatsSnapshot()
	alice, bob := stats.Tenants["alice"], stats.Tenants["bob"]
	// Bob pays exactly his per-call fuel: the init cost must not bleed
	// into tenants who didn't trigger the build.
	if bob.Fuel != bobCallFuel {
		t.Errorf("bob charged %d fuel for a %d-fuel call — init fuel leaked per-request", bob.Fuel, bobCallFuel)
	}
	// Alice pays her per-call fuel plus the init exactly once: her
	// final tally must equal calls + the single init charge observed
	// after request one, with nothing added by requests two through N.
	if initFuel == 0 {
		t.Error("alice was never charged the one-time init fuel")
	}
	if alice.Fuel != aliceCallFuel+initFuel {
		t.Errorf("alice charged %d fuel, want calls(%d) + one-time init(%d): init charged per request",
			alice.Fuel, aliceCallFuel, initFuel)
	}

	// Observability: the snapshot cache built one image and served every
	// checkout by forking it.
	if stats.Snapshots.Entries == 0 {
		t.Error("snapshot cache holds no entries after pre-initialization")
	}
	if stats.Snapshots.Restores == 0 {
		t.Error("no checkout was served by forking the snapshot")
	}
	// ... and what the forks cost: at least the first spawn installed the
	// whole image, and every other restore is accounted in pages.
	if fi := stats.Snapshots.FullInstalls; fi == 0 || fi > stats.Snapshots.Restores {
		t.Errorf("full_installs = %d of %d restores, want 1..restores", fi, stats.Snapshots.Restores)
	}
	// ... and what the births ran on: every spawn of this wasm64 module
	// took heap storage, made or recycled.
	if births := stats.Snapshots.BirthsRecycled + stats.Snapshots.BirthsFresh; births < stats.Pools.Spawned {
		t.Errorf("births_recycled + births_fresh = %d after %d spawns", births, stats.Pools.Spawned)
	}

	// The Prometheus rendering carries the same counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	prom := buf.String()
	for _, w := range []string{
		`cage_cache_misses_total{cache="snapshot"}`,
		`# TYPE cage_snapshot_restores_total counter`,
		fmt.Sprintf("cage_snapshot_restored_pages_total %d\n", stats.Snapshots.RestoredPages),
		fmt.Sprintf("cage_snapshot_full_installs_total %d\n", stats.Snapshots.FullInstalls),
		fmt.Sprintf("cage_instance_births_recycled_total %d\n", stats.Snapshots.BirthsRecycled),
		fmt.Sprintf("cage_instance_births_fresh_total %d\n", stats.Snapshots.BirthsFresh),
	} {
		if !strings.Contains(prom, w) {
			t.Errorf("/metrics output missing %q", w)
		}
	}
}

// TestInitUploadValidation pins the upload-time init checks: a bad name
// or arity fails the upload with a stable code instead of deferring the
// failure to the first unlucky invocation.
func TestInitUploadValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{Config: cage.Baseline64(), ConfigName: "baseline64"})

	var eb errorBody
	resp := postJSON(t, ts, "/v1/modules?init=nope", "", []byte(initGuestSource), &eb)
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "init_not_found" {
		t.Errorf("unknown init: got (%d, %q), want (422, init_not_found)", resp.StatusCode, eb.Error.Code)
	}

	eb = errorBody{}
	resp = postJSON(t, ts, "/v1/modules?init=get_token", "", []byte(initGuestSource), &eb)
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "init_bad_signature" {
		t.Errorf("init with params: got (%d, %q), want (422, init_bad_signature)", resp.StatusCode, eb.Error.Code)
	}

	// A valid registration wins the id; a cached re-upload reports the
	// original init spec regardless of its own ?init= parameter.
	var up UploadResponse
	resp = postJSON(t, ts, "/v1/modules?init=setup", "", []byte(initGuestSource), &up)
	if resp.StatusCode != http.StatusCreated || up.Init != "setup" {
		t.Fatalf("valid init upload: status %d init %q", resp.StatusCode, up.Init)
	}
	var again UploadResponse
	resp = postJSON(t, ts, "/v1/modules?init=init_count", "", []byte(initGuestSource), &again)
	if resp.StatusCode != http.StatusOK || !again.Cached || again.Init != "setup" {
		t.Errorf("re-upload: status %d cached %t init %q, want (200, true, setup)", resp.StatusCode, again.Cached, again.Init)
	}
}
