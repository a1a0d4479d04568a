// Command cage-serve runs the multi-tenant execution service: an HTTP
// daemon that registers uploaded modules by content hash, invokes them
// on pooled hardened instances, and enforces per-tenant quotas
// (fuel/timeout/memory/stack), admission control, and bounded request
// queueing. See internal/serve for the HTTP contract.
//
// Usage:
//
//	cage-serve [-addr :8080]
//	           [-config full|hardened|baseline32|baseline64|memsafety|ptrauth|sandbox]
//	           [-fuel n] [-timeout d] [-memory-pages n]
//	           [-stack-depth n] [-stack-words n]
//	           [-max-concurrent n] [-max-queue n]
//	           [-max-modules n] [-max-module-bytes n]
//	           [-max-tenants n] [-max-upload-bytes n]
//	           [-extended-sandboxes]
//	           [-hardened-tenants a,b,c]
//	           [-pprof addr] [-mutex-profile-fraction n] [-block-profile-rate n]
//
// The quota flags define the default tenant policy, applied to every
// tenant (tenants are named by the X-Cage-Tenant request header).
// -hardened-tenants names tenants whose invocations run on the
// Spectre-hardened twin of -config: identical semantics, with the
// mitigation's fence/BTB-flush events charged against their fuel.
//
// -pprof starts a side HTTP server (never the serving address) exposing
// net/http/pprof; -mutex-profile-fraction and -block-profile-rate feed
// the contention profiles that the multicore scale-out work is tuned
// against.
//
// SIGINT/SIGTERM stop the listener, give in-flight requests
// shutdownGrace to finish, then retire every pooled instance.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cage"
	"cage/internal/serve"
)

// shutdownGrace bounds how long a SIGINT/SIGTERM shutdown waits for
// in-flight requests before closing the engine under them (which is
// safe: a call that outlives Close still returns, and its instance is
// closed at checkin).
const shutdownGrace = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cfgName := flag.String("config", "full", "sandbox configuration preset")
	fuel := flag.Uint64("fuel", 0, "per-call fuel ceiling in timing-model events (0 = unmetered)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call wall-clock ceiling (0 = none)")
	memPages := flag.Uint64("memory-pages", 0, "per-call memory.grow ceiling in 64 KiB pages (0 = module maximum)")
	stackDepth := flag.Int("stack-depth", 0, "per-call frame-count ceiling (0 = engine default)")
	stackWords := flag.Uint64("stack-words", 0, "per-call value-arena ceiling in 64-bit words (0 = engine default)")
	maxConcurrent := flag.Int("max-concurrent", 64, "per-tenant in-flight invocation cap (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 256, "per-tenant admission queue depth beyond the in-flight cap")
	maxModules := flag.Int("max-modules", 0, "per-tenant registered-module cap (0 = unlimited)")
	maxModuleBytes := flag.Int64("max-module-bytes", 16<<20, "per-upload size cap in bytes (0 = tenant-unlimited; the server-wide cap still applies)")
	maxTenants := flag.Int("max-tenants", 0, "distinct tenant-state cap; excess unknown tenants share one aggregate (0 = default 256, negative = unlimited)")
	maxUploadBytes := flag.Int64("max-upload-bytes", 0, "server-wide upload body cap in bytes (0 = default 64 MiB, negative = unlimited)")
	extended := flag.Bool("extended-sandboxes", false, "lift the 15-sandbox budget via §6.4 tag reuse")
	hardenedTenants := flag.String("hardened-tenants", "", "comma-separated tenants whose calls run on the Spectre-hardened engine")
	pprofAddr := flag.String("pprof", "", "listen address for a net/http/pprof side server (empty = disabled)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 = off)")
	blockRate := flag.Int("block-profile-rate", 0, "sample blocking events >= n ns for /debug/pprof/block (0 = off)")
	flag.Parse()

	cfg, err := cage.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-serve: %v\n", err)
		os.Exit(2)
	}
	quota := serve.QuotaPolicy{
		Fuel:           *fuel,
		Timeout:        *timeout,
		MemoryPages:    *memPages,
		StackDepth:     *stackDepth,
		StackWords:     *stackWords,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		MaxModules:     *maxModules,
		MaxModuleBytes: *maxModuleBytes,
	}
	var tenants map[string]serve.QuotaPolicy
	if *hardenedTenants != "" {
		tenants = make(map[string]serve.QuotaPolicy)
		for _, name := range strings.Split(*hardenedTenants, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			p := quota
			p.SpectreHardened = true
			tenants[name] = p
		}
	}
	srv, err := serve.New(serve.Options{
		Config:            cfg,
		ConfigName:        *cfgName,
		DefaultQuota:      quota,
		Tenants:           tenants,
		MaxTenants:        *maxTenants,
		MaxUploadBytes:    *maxUploadBytes,
		ExtendedSandboxes: *extended,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cage-serve: %v\n", err)
		os.Exit(1)
	}

	// Contention profiling knobs and the pprof side server. The profile
	// rates are process-global, so they take effect whether or not the
	// side server is enabled (a later SIGQUIT dump still carries them);
	// the pprof listener is kept off the serving address so profiling
	// endpoints are never reachable by tenants.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go func() {
			// http.DefaultServeMux carries the net/http/pprof handlers
			// registered by the blank import.
			ps := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("cage-serve: pprof on %s", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil {
				log.Printf("cage-serve: pprof server: %v", err)
			}
		}()
	}

	log.Printf("cage-serve: config %s, listening on %s", *cfgName, *addr)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		srv.Close()
		fmt.Fprintf(os.Stderr, "cage-serve: %v\n", err)
		os.Exit(1)
	case <-sig.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("cage-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("cage-serve: requests still in flight after %v: %v", shutdownGrace, err)
	}
	srv.Close()
}
