// Package profile records hot opcode sequences from lowered-IR
// execution: the per-Program pair/triple counters that drive the
// superinstruction pass (internal/fuse).
//
// A Recorder hangs off the executor (exec.Config.Profile) and counts
// every adjacent pair and triple of instructions the dispatch loop
// retires — "adjacent" meaning consecutively executed AND consecutive
// in the code (pc continuity), which is exactly the property fusion
// needs. Memory opcodes are canonicalized to one representative per
// direction (load.g32 / store.g32), so a profile recorded under one
// address-translation mode guides fusion under every other: the hot
// *shape* (load+op, op+store, cmp+br, const+op) is mode-independent.
//
// Profiles serialize to JSON with opcodes by mnemonic — checked-in
// corpora survive opcode renumbering, and unknown names are skipped on
// read. Default() returns the embedded polybench corpus
// (corpus/polybench.json, regenerated by `cage-bench -record-profile`),
// the profile the runtime fuses with when the embedder supplies none.
package profile

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"cage/internal/ir"
)

// MaxSeq is the longest sequence recorded (and fusable): triples.
const MaxSeq = 3

// seqKey identifies one recorded sequence; unused tail slots are
// OpInvalid (zero).
type seqKey struct {
	n   int
	ops [MaxSeq]ir.Op
}

// canonical folds the per-mode memory-opcode specialization away so
// profiles transfer across lowering configs.
func canonical(op ir.Op) ir.Op {
	switch {
	case op.IsLoad():
		return ir.OpLoadG32
	case op.IsStore():
		return ir.OpStoreG32
	}
	return op
}

// Recorder accumulates sequence counts from a running dispatch loop.
// It is single-goroutine like the instance it observes.
type Recorder struct {
	counts map[seqKey]uint64

	// pc-continuity state: lastCode identifies the function body (by
	// the address of its first instruction), lastPC the previously
	// retired pc, valid how many history slots are continuous.
	lastCode *ir.Instr
	lastPC   int
	valid    int
	prev1    ir.Op
	prev2    ir.Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{counts: make(map[seqKey]uint64)}
}

// Note records one retired instruction: op at pc of the function body
// starting at code. Calls, branches, and host crossings break pc
// continuity and simply reset the window — only straight-line adjacent
// sequences are ever counted.
func (r *Recorder) Note(code *ir.Instr, pc int, op ir.Op) {
	if code != r.lastCode || pc != r.lastPC+1 {
		r.valid = 0
	}
	r.lastCode, r.lastPC = code, pc
	op = canonical(op)
	if r.valid >= 1 {
		r.counts[seqKey{n: 2, ops: [MaxSeq]ir.Op{r.prev1, op}}]++
	}
	if r.valid >= 2 {
		r.counts[seqKey{n: 3, ops: [MaxSeq]ir.Op{r.prev2, r.prev1, op}}]++
	}
	r.prev2, r.prev1 = r.prev1, op
	if r.valid < MaxSeq-1 {
		r.valid++
	}
}

// Profile snapshots the recorder into a serializable profile, hottest
// sequences first.
func (r *Recorder) Profile() *Profile {
	p := &Profile{}
	for k, c := range r.counts {
		names := make([]string, k.n)
		for i := 0; i < k.n; i++ {
			names[i] = k.ops[i].String()
		}
		p.Seqs = append(p.Seqs, Seq{Ops: names, Count: c})
	}
	p.sortCanonical()
	return p
}

// Seq is one recorded opcode sequence with its execution count.
type Seq struct {
	Ops   []string `json:"ops"`
	Count uint64   `json:"count"`
}

// Profile is a serializable hot-sequence table.
type Profile struct {
	Seqs []Seq `json:"seqs"`

	lookupOnce sync.Once
	lookup     map[seqKey]uint64
	idOnce     sync.Once
	id         string
}

// sortCanonical orders sequences hottest-first with a deterministic
// tiebreak, so serialization (and the ID hash) is stable.
func (p *Profile) sortCanonical() {
	sort.Slice(p.Seqs, func(i, j int) bool {
		if p.Seqs[i].Count != p.Seqs[j].Count {
			return p.Seqs[i].Count > p.Seqs[j].Count
		}
		return fmt.Sprint(p.Seqs[i].Ops) < fmt.Sprint(p.Seqs[j].Ops)
	})
}

// Count returns the recorded execution count of the exact sequence
// ops, after canonicalization; zero for sequences never observed.
func (p *Profile) Count(ops ...ir.Op) uint64 {
	if p == nil || len(ops) < 2 || len(ops) > MaxSeq {
		return 0
	}
	p.lookupOnce.Do(p.buildLookup)
	k := seqKey{n: len(ops)}
	for i, op := range ops {
		k.ops[i] = canonical(op)
	}
	return p.lookup[k]
}

func (p *Profile) buildLookup() {
	m := make(map[seqKey]uint64, len(p.Seqs))
	for _, s := range p.Seqs {
		if len(s.Ops) < 2 || len(s.Ops) > MaxSeq {
			continue
		}
		k := seqKey{n: len(s.Ops)}
		ok := true
		for i, name := range s.Ops {
			op, found := ir.ParseOp(name)
			if !found {
				ok = false // unknown mnemonic: sequence from a different vintage
				break
			}
			k.ops[i] = canonical(op)
		}
		if ok {
			m[k] += s.Count
		}
	}
	p.lookup = m
}

// Merge adds other's counts into p (corpus building across kernels).
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	sum := make(map[string]int, len(p.Seqs))
	for i, s := range p.Seqs {
		sum[fmt.Sprint(s.Ops)] = i
	}
	for _, s := range other.Seqs {
		if i, ok := sum[fmt.Sprint(s.Ops)]; ok {
			p.Seqs[i].Count += s.Count
		} else {
			p.Seqs = append(p.Seqs, Seq{Ops: append([]string(nil), s.Ops...), Count: s.Count})
		}
	}
	p.sortCanonical()
	p.lookupOnce = sync.Once{}
	p.lookup = nil
	p.idOnce = sync.Once{}
}

// ID returns a short content hash of the profile — the fusion
// component of the program-cache key, so two profiles that would fuse
// differently never share a cached program. It is computed once per
// profile (Merge invalidates it): every instance birth spells the cache
// key, and hashing the corpus costs more than the birth.
func (p *Profile) ID() string {
	if p == nil {
		return "none"
	}
	p.idOnce.Do(p.hashID)
	return p.id
}

func (p *Profile) hashID() {
	h := sha256.New()
	for _, s := range p.Seqs {
		fmt.Fprintf(h, "%v=%d\n", s.Ops, s.Count)
	}
	p.id = hex.EncodeToString(h.Sum(nil))[:16]
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON parses a serialized profile. Rows are put in canonical
// order, so ID is a hash of the content, not of the file's row order.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p.sortCanonical()
	return &p, nil
}

//go:embed corpus/polybench.json
var corpusJSON []byte

var (
	defaultOnce sync.Once
	defaultProf *Profile
)

// Default returns the checked-in polybench corpus: the hot-sequence
// table of every polybench kernel, recorded by
// `cage-bench -record-profile`. It is the profile the runtime's
// fusion pass uses when the embedder supplies none.
func Default() *Profile {
	defaultOnce.Do(func() {
		var p Profile
		if err := json.Unmarshal(corpusJSON, &p); err != nil {
			// A corrupt corpus must not take instantiation down; an
			// empty profile simply fuses nothing.
			defaultProf = &Profile{}
			return
		}
		defaultProf = &p
	})
	return defaultProf
}
