package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cage"
	"cage/internal/wasm"
)

// wasmMagic opens every binary wasm image; bodies without it are
// treated as MiniC source.
var wasmMagic = []byte{0x00, 'a', 's', 'm'}

// funcSig is the arity of one exported function, pre-resolved at
// registration so invokes validate the target without a checkout.
type funcSig struct {
	// name is the canonical exported name. The hot path parses the
	// request's function name as a []byte view and looks it up with a
	// no-copy map index; this field gives it an interned string to hand
	// to Engine.CallWith without converting (and so allocating) its own.
	name    string
	params  int
	results int
}

// moduleEntry is one registered module.
type moduleEntry struct {
	id   string
	mod  *cage.Module
	size int64 // canonical encoded size
	// tenant is the first registrant (informational; ids are global).
	tenant string
	funcs  map[string]funcSig
	m      counters

	// initFn is the pre-initialization function named by the creating
	// upload's ?init= parameter ("" for none). The first invocation runs
	// it once under Engine.Snapshot; every later checkout forks from the
	// frozen post-init image.
	initFn string
	// initMu serializes the one-time snapshot build; snapDone latches
	// success per engine — the base and Spectre-hardened engines keep
	// separate pools, so each needs its own post-init image. Failures do
	// not latch, so a transient build error (e.g. the triggering client
	// disconnecting mid-init) is retried by the next invocation instead
	// of bricking the module.
	initMu   sync.Mutex
	snapDone map[*cage.Engine]bool
}

// exportNames lists the entry's callable exports, sorted.
func (e *moduleEntry) exportNames() []string {
	names := make([]string, 0, len(e.funcs))
	for name := range e.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// registry content-addresses compiled modules: the id is the SHA-256 of
// the module's canonical binary encoding, so the same program uploaded
// as source or as binary — by any tenant — lands on one entry, one
// engine cache slot, and one instance pool.
type registry struct {
	mu   sync.RWMutex
	byID map[string]*moduleEntry
	// bySrc maps the SHA-256 of the bytes a creating upload POSTed to
	// its entry, so a byte-identical re-upload is answered before any
	// compile or engine-cache work. One alias per entry (the creating
	// body only), so the index is bounded by the registry itself.
	bySrc map[[32]byte]*moduleEntry
	// snap is the immutable published copy of byID. Invokes resolve
	// modules off it with a plain atomic load — no lock, no allocation —
	// while register (rare, upload path) clones and republishes under
	// mu. Readers of a snapshot map never see writes: every mutation
	// builds a fresh map.
	snap atomic.Pointer[map[string]*moduleEntry]
}

// lookupSource finds the entry a byte-identical upload created.
func (r *registry) lookupSource(body []byte) (*moduleEntry, bool) {
	key := sha256.Sum256(body)
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.bySrc[key]
	return e, ok
}

// lookup finds a registered module. Lock-free: it reads the published
// snapshot, so a stats scrape or upload burst never stalls an invoke.
func (r *registry) lookup(id string) (*moduleEntry, bool) {
	m := r.snap.Load()
	if m == nil {
		return nil, false
	}
	e, ok := (*m)[id]
	return e, ok
}

// lookupBytes is lookup for an id still held as a []byte view into the
// request buffer. The map index converts without copying (a compiler-
// recognized pattern), so the hot path resolves modules with zero
// allocations.
func (r *registry) lookupBytes(id []byte) (*moduleEntry, bool) {
	m := r.snap.Load()
	if m == nil {
		return nil, false
	}
	e, ok := (*m)[string(id)]
	return e, ok
}

// list snapshots the entries sorted by id.
func (r *registry) list() []*moduleEntry {
	m := r.snap.Load()
	if m == nil {
		return nil
	}
	out := make([]*moduleEntry, 0, len(*m))
	for _, e := range *m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// register adds (or finds) the entry for a compiled module. created
// reports whether this call inserted it. Before inserting a new entry
// — and still holding the registry lock, so the outcome is atomic —
// register calls reserve, the caller's claim against its MaxModules
// quota; a reserve error aborts the insert and is returned verbatim,
// leaving no trace of the rejected module in the registry. Finding an
// existing entry never calls reserve (re-registering content is free).
// src is the upload body that produced mod, indexed on creation so
// byte-identical re-uploads skip compilation entirely. initFn is the
// creating upload's pre-initialization function; content is
// first-registrant-wins, so a re-register of existing content keeps the
// original init spec.
func (r *registry) register(tenant string, src []byte, mod *cage.Module, initFn string, reserve func() error) (e *moduleEntry, created bool, err error) {
	bin, err := mod.Encode()
	if err != nil {
		return nil, false, fmt.Errorf("serve: encoding module for registration: %w", err)
	}
	hash := sha256.Sum256(bin)
	id := "sha256:" + hex.EncodeToString(hash[:])

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byID[id]; ok {
		return e, false, nil
	}
	if reserve != nil {
		if err := reserve(); err != nil {
			return nil, false, err
		}
	}
	e = &moduleEntry{
		id:     id,
		mod:    mod,
		size:   int64(len(bin)),
		tenant: tenant,
		funcs:  exportedFuncs(mod.Raw()),
		initFn: initFn,
	}
	if r.byID == nil {
		r.byID = make(map[string]*moduleEntry)
		r.bySrc = make(map[[32]byte]*moduleEntry)
	}
	r.byID[id] = e
	r.bySrc[sha256.Sum256(src)] = e
	snap := make(map[string]*moduleEntry, len(r.byID))
	for k, v := range r.byID {
		snap[k] = v
	}
	r.snap.Store(&snap)
	return e, true, nil
}

// exportedFuncs resolves every function export's arity.
func exportedFuncs(m *wasm.Module) map[string]funcSig {
	funcs := make(map[string]funcSig)
	for _, exp := range m.Exports {
		if exp.Kind != wasm.ExportFunc {
			continue
		}
		ft, err := m.FuncTypeAt(exp.Idx)
		if err != nil {
			continue // validated modules never hit this
		}
		funcs[exp.Name] = funcSig{name: exp.Name, params: len(ft.Params), results: len(ft.Results)}
	}
	return funcs
}

// isWasm reports whether an upload body is a binary module image.
func isWasm(body []byte) bool { return bytes.HasPrefix(body, wasmMagic) }
