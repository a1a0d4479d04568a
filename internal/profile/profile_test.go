package profile

import (
	"bytes"
	"reflect"
	"testing"

	"cage/internal/ir"
)

// defaultID is profile.Default().ID() for the checked-in corpus. It is
// the fusion component of every program-cache key, so it moves only
// when corpus/polybench.json is re-recorded.
const defaultID = "c286f9e66b632a21"

// op resolves a mnemonic the way a profile's reader does.
func op(t *testing.T, name string) ir.Op {
	t.Helper()
	o, ok := ir.ParseOp(name)
	if !ok {
		t.Fatalf("ir has no op %q", name)
	}
	return o
}

func sample() *Profile {
	return &Profile{Seqs: []Seq{
		{Ops: []string{"const", "i64.add"}, Count: 9},
		{Ops: []string{"load.g32", "i64.add", "store.g32"}, Count: 4},
		{Ops: []string{"local.get", "const"}, Count: 4},
	}}
}

func TestJSONRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Seqs, p.Seqs) {
		t.Errorf("round trip changed the rows:\n got %v\nwant %v", got.Seqs, p.Seqs)
	}
	if got.ID() != p.ID() {
		t.Errorf("round trip changed the ID: %s → %s", p.ID(), got.ID())
	}
	if _, err := ReadJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated document accepted")
	}
}

// TestIDStableUnderRowPermutation: ID is a content hash, so the same
// rows in another file order must not get a second program-cache entry.
func TestIDStableUnderRowPermutation(t *testing.T) {
	canon := sample()
	perm := &Profile{Seqs: []Seq{canon.Seqs[2], canon.Seqs[0], canon.Seqs[1]}}
	var buf bytes.Buffer
	if err := perm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != canon.ID() {
		t.Errorf("permuted rows read back with ID %s, canonical order has %s", got.ID(), canon.ID())
	}
}

func TestMergeSumsAndInvalidatesLookup(t *testing.T) {
	p := sample()
	add, mul := op(t, "i64.add"), op(t, "i64.mul")
	if got := p.Count(ir.OpConst, add); got != 9 {
		t.Fatalf("Count before merge = %d, want 9", got)
	}
	p.Merge(&Profile{Seqs: []Seq{
		{Ops: []string{"const", "i64.add"}, Count: 1},
		{Ops: []string{"i64.add", "i64.mul"}, Count: 20},
	}})
	// Count built its lookup above; Merge must have dropped it.
	if got := p.Count(ir.OpConst, add); got != 10 {
		t.Errorf("merged count = %d, want 9+1", got)
	}
	if got := p.Count(add, mul); got != 20 {
		t.Errorf("new row's count = %d, want 20", got)
	}
	if len(p.Seqs) != 4 || p.Seqs[0].Count != 20 {
		t.Errorf("merge left %d rows with %d hottest, want 4 rows led by the 20", len(p.Seqs), p.Seqs[0].Count)
	}
	p.Merge(nil)
	if len(p.Seqs) != 4 {
		t.Errorf("Merge(nil) changed the profile to %d rows", len(p.Seqs))
	}
}

// TestRecorderCanonicalisesMemoryOps: whatever address-translation mode
// the recorded program was lowered under, the profile names one load
// and one store, and breaks its window where the pc is not continuous.
func TestRecorderCanonicalisesMemoryOps(t *testing.T) {
	load, store, add := ir.OpLoadMTE, ir.OpStoreB64NC, op(t, "i64.add")
	code := make([]ir.Instr, 8)
	r := NewRecorder()
	r.Note(&code[0], 0, load)
	r.Note(&code[0], 1, add)
	r.Note(&code[0], 2, store)
	r.Note(&code[0], 5, add) // a branch landed here: new window
	p := r.Profile()

	if got := p.Count(ir.OpLoadG32, add, ir.OpStoreG32); got != 1 {
		t.Errorf("canonical triple counted %d times, want 1", got)
	}
	if got := p.Count(load, add); got != 1 {
		t.Errorf("lookup by the %s mode found %d, want 1", load, got)
	}
	if got := p.Count(ir.OpStoreG32, add); got != 0 {
		t.Errorf("a pair was counted across a pc discontinuity (%d)", got)
	}
	for _, s := range p.Seqs {
		for _, name := range s.Ops {
			if name == load.String() || name == store.String() {
				t.Errorf("profile row %v names a mode-specific memory op", s.Ops)
			}
		}
	}
}

func TestDefaultCorpus(t *testing.T) {
	p := Default()
	if len(p.Seqs) == 0 {
		t.Fatal("embedded corpus is empty: the runtime would fuse nothing")
	}
	for _, s := range p.Seqs {
		for _, name := range s.Ops {
			if _, ok := ir.ParseOp(name); !ok {
				t.Errorf("corpus row %v: %q is not an ir mnemonic", s.Ops, name)
			}
		}
	}
	if got := p.ID(); got != defaultID {
		t.Errorf("Default().ID() = %s, want %s: every cached and fused program is keyed on it", got, defaultID)
	}
	// The checked-in file is already canonical, so reading it through
	// ReadJSON gives the same ID the embedded copy has.
	viaRead, err := ReadJSON(bytes.NewReader(corpusJSON))
	if err != nil {
		t.Fatal(err)
	}
	if viaRead.ID() != defaultID {
		t.Errorf("ReadJSON(corpus).ID() = %s, want %s", viaRead.ID(), defaultID)
	}
}

// TestIDIsComputedOnce: every instance birth asks for the ID to spell
// its program-cache key, so after the first call it must hash — and
// allocate — nothing; Merge changes the content, and the ID with it.
func TestIDIsComputedOnce(t *testing.T) {
	def := Default()
	if first, second := def.ID(), def.ID(); first != defaultID || second != defaultID {
		t.Fatalf("Default().ID() twice = %s, %s; want %s both times", first, second, defaultID)
	}
	var id string
	if n := testing.AllocsPerRun(100, func() { id = def.ID() }); n != 0 || id != defaultID {
		t.Errorf("a repeated ID() allocates %.0f objects and returns %s, want 0 and %s", n, id, defaultID)
	}
	// A private copy of the corpus: Default() is shared by the process.
	p, err := ReadJSON(bytes.NewReader(corpusJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != defaultID {
		t.Fatalf("copy of the corpus has ID %s, want %s", p.ID(), defaultID)
	}
	p.Merge(&Profile{Seqs: []Seq{{Ops: []string{"const", "i64.add"}, Count: 1}}})
	if p.ID() == defaultID {
		t.Error("ID unchanged after Merge: the merged profile would alias the corpus's cached programs")
	}
}
