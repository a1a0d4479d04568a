// Package serve is the multi-tenant execution service over the cage
// engine: the HTTP front end the paper's economics argue for — when
// hardware-backed sandboxing makes isolation cheap (§7), one host can
// pack many mutually-distrusting tenants, so the binding constraint
// becomes admission, quotas, and observability, not page tables.
//
// # Surface
//
//	POST /v1/modules   upload a module (wasm binary or MiniC source);
//	                   responds with its content-hash id ("sha256:…")
//	GET  /v1/modules   list registered modules
//	POST /v1/invoke    invoke an exported function of a registered module
//	GET  /v1/stats     JSON counters per tenant and per module
//	GET  /metrics      the same counters in Prometheus text format
//	GET  /healthz      liveness
//
// Tenants are named by the X-Cage-Tenant request header (absent means
// the "default" tenant). A tenant is a quota namespace and a metrics
// namespace — nothing more; module ids are global (content-addressed,
// so two tenants uploading the same bytes share one compiled module,
// one lowered program, and one instance pool). The header is
// unauthenticated, so per-tenant state is bounded: once MaxTenants
// distinct names exist, unknown names share one aggregate tenant
// (labeled OverflowTenant) instead of growing the tenant map and the
// metrics label space without bound; names configured in
// Options.Tenants always keep their own state.
//
// # Quota model
//
// A QuotaPolicy bounds a tenant along the exact per-call axes the
// engine already enforces (cage.CallOption): fuel (deterministic
// timing-model events), wall-clock timeout, memory pages, frame depth,
// and value-stack words. The policy is a ceiling, not a default the
// guest can escape: a request may ask for *less* fuel or time than the
// policy grants, never more — requests above the cap are silently
// clamped. Enforcement is the interpreter's own meter chain, so a
// tenant's `for(;;);` is interrupted at the next branch checkpoint,
// the trapped instance is reset before the pool reuses it, and its
// §7.4 sandbox tag is back in service for the next request — a tenant
// can waste its own budget, never the host's.
//
// Registry quotas are enforced before resources are consumed, not
// after: an upload from a tenant with no MaxModules headroom is
// refused before its body is compiled, and the quota charge is
// reserved under the registry lock before the entry becomes visible,
// so a rejected upload leaves no registry entry, no engine-cache
// slot, and no free cached re-upload path. Upload bodies are bounded
// twice — by the tenant's MaxModuleBytes and by the server-wide
// MaxUploadBytes backstop, which holds even for tenants with no byte
// quota of their own.
//
// # Admission control and queueing
//
// Requests pass two gates. The first is per-tenant admission: at most
// MaxConcurrent invocations in flight, with at most MaxQueue more
// waiting; a request past both bounds is rejected immediately with
// 429 and a Retry-After hint, so a bursty tenant sheds its own load
// instead of growing an unbounded goroutine queue. The wait is
// context-bound: a client that disconnects while queued abandons its
// slot at once.
//
// The second gate is the engine's: checkouts queue on the per-module
// pool cap and on the shared §7.4 sandbox-tag budget, again bound to
// the request context (Pool.GetContext). The tenant gate bounds how
// much load one tenant may present; the pool gate arbitrates the
// hardware budget among the admitted. Queue depth and in-flight
// counts per tenant, and pool occupancy per module, are exported on
// /v1/stats and /metrics.
//
// # Privilege boundary
//
// Guests are confined by the sandbox configuration the server was
// started with (MTE sandboxing, software bounds, or guard pages — the
// Table 3 presets). The daemon itself adds no host functions beyond
// the runtime's built-in surface (hardened libc, WASI stdio, env
// helpers), so an uploaded module's reach is: its own linear memory,
// its own hardened heap, and stdout/stderr of the daemon process.
// Cross-tenant isolation rests on three mechanisms, from innermost
// out: the sandbox (a guest cannot address another instance's
// memory), the pool reset protocol (an instance is re-zeroed,
// re-tagged, and re-seeded before any reuse, so no tenant observes
// another's heap through recycling), and per-tenant metrics/quota
// namespaces (a tenant cannot read — or exhaust — another's
// counters or concurrency slots). Uploads are untrusted input: the
// decoder and validator run before registration, request bodies are
// size-capped, and malformed requests are answered with structured
// JSON errors, never a panic (FuzzServeRequest pins this).
//
// # Shutdown
//
// Server.Close retires the pooled instances and is safe under load: an
// invocation still in flight completes (or fails cleanly) against the
// closed engine, and its instance is closed — its sandbox tag released
// — when it is checked in. cage-serve stops the listener first
// (http.Server.Shutdown, bounded grace period), then closes.
package serve
