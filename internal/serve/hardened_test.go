package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cage"
)

// TestHardenedTenant pins the per-tenant Spectre-hardened path: a
// tenant whose policy sets SpectreHardened gets the same answers as
// everyone else from the same registered module, pays the mitigation's
// fence/BTB-flush events on top, and is labeled hardened in /v1/stats.
func TestHardenedTenant(t *testing.T) {
	hardened := QuotaPolicy{SpectreHardened: true}
	ts, srv := newTestServer(t, Options{
		Config:     cage.FullHardening(),
		ConfigName: "full",
		Tenants:    map[string]QuotaPolicy{"spectre": hardened},
	})
	if srv.hardEng == nil {
		t.Fatal("server with a hardened tenant built no hardened engine")
	}

	up := uploadSource(t, ts, "plain", guestSource)
	req := InvokeRequest{Module: up.Module, Function: "add", Args: []uint64{20, 22}}

	resp, plain, _ := invoke(t, ts, "plain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain invoke: status %d", resp.StatusCode)
	}
	resp, hard, _ := invoke(t, ts, "spectre", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hardened invoke: status %d", resp.StatusCode)
	}

	// Identical answers, more expensive accounting.
	if len(hard.Values) != 1 || hard.Values[0] != 42 {
		t.Fatalf("hardened values %v, want [42]", hard.Values)
	}
	if plain.Values[0] != hard.Values[0] {
		t.Errorf("answers diverge: plain %v, hardened %v", plain.Values, hard.Values)
	}
	if hard.Fuel <= plain.Fuel {
		t.Errorf("hardened fuel %d not above plain %d", hard.Fuel, plain.Fuel)
	}
	if hard.Events["fence"] == 0 || hard.Events["btb_flush"] == 0 {
		t.Errorf("hardened events %v lack fence/btb_flush", hard.Events)
	}
	if plain.Events["fence"] != 0 || plain.Events["btb_flush"] != 0 {
		t.Errorf("plain tenant charged mitigation events: %v", plain.Events)
	}

	stats := srv.StatsSnapshot()
	if !stats.Tenants["spectre"].Hardened {
		t.Error("stats do not label the hardened tenant")
	}
	if stats.Tenants["plain"].Hardened {
		t.Error("stats label the plain tenant hardened")
	}
}

// TestHardenedTenantSnapshotPerEngine pins the per-engine snapshot
// story: a module registered with ?init= builds one post-init image on
// the base engine and a separate one on the hardened engine, and both
// serve correct post-init state.
func TestHardenedTenantSnapshotPerEngine(t *testing.T) {
	const src = `
extern char* malloc(long n);
long* cell;
long setup() { cell = (long*)malloc(8); *cell = 41; return 0; }
long bump(long d) { *cell = *cell + d; return *cell; }
`
	hardened := QuotaPolicy{SpectreHardened: true}
	ts, srv := newTestServer(t, Options{
		Config:     cage.FullHardening(),
		ConfigName: "full",
		Tenants:    map[string]QuotaPolicy{"spectre": hardened},
	})

	var up UploadResponse
	resp := postJSON(t, ts, "/v1/modules?init=setup", "plain", []byte(src), &up)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	req := InvokeRequest{Module: up.Module, Function: "bump", Args: []uint64{1}}

	for _, tenant := range []string{"plain", "spectre"} {
		resp, ok, eb := invoke(t, ts, tenant, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s invoke: status %d (%+v)", tenant, resp.StatusCode, eb)
		}
		// Every invocation forks the frozen post-init image, so each
		// sees *cell == 41 and returns 42 — on either engine.
		if len(ok.Values) != 1 || ok.Values[0] != 42 {
			t.Fatalf("%s: values %v, want [42]", tenant, ok.Values)
		}
	}

	entry, found := srv.reg.lookup(up.Module)
	if !found {
		t.Fatal("module vanished from the registry")
	}
	entry.initMu.Lock()
	built := len(entry.snapDone)
	entry.initMu.Unlock()
	if built != 2 {
		t.Errorf("post-init snapshots built on %d engines, want 2 (base + hardened)", built)
	}
}

// TestHardenedEngineInheritsExtendedSandboxes: the Spectre-hardened
// sibling engine is built from a copy of Options.Config, so
// ExtendedSandboxes lifts its §7.4 budget too — it holds more than the
// 15 checkouts SandboxingOnly's tag budget allows at once.
func TestHardenedEngineInheritsExtendedSandboxes(t *testing.T) {
	const want = 16
	cfg := cage.SandboxingOnly()
	cfg.ExtendedSandboxes = true
	ts, srv := newTestServer(t, Options{
		Config:     cfg,
		ConfigName: "sandbox",
		Tenants:    map[string]QuotaPolicy{"spectre": {SpectreHardened: true}},
	})
	up := uploadSource(t, ts, "spectre", guestSource)
	req := InvokeRequest{Module: up.Module, Function: "add", Args: []uint64{20, 22}}
	if resp, ok, _ := invoke(t, ts, "spectre", req); resp.StatusCode != http.StatusOK || ok.Values[0] != 42 {
		t.Fatalf("hardened invoke: status %d, values %v", resp.StatusCode, ok.Values)
	}
	entry, found := srv.reg.lookup(up.Module)
	if !found {
		t.Fatal("module vanished from the registry")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var held atomic.Int32
	all := make(chan struct{})
	var holders sync.WaitGroup
	for i := 0; i < want; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			srv.hardEng.WithInstanceContext(ctx, entry.mod, func(*cage.Instance) error {
				if held.Add(1) == want {
					close(all)
				}
				<-ctx.Done()
				return nil
			})
		}()
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
	}
	cancel()
	holders.Wait()
	if got := held.Load(); got != want {
		t.Errorf("hardened engine held %d checkouts at once, want %d", got, want)
	}
}
