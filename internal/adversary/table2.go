package adversary

import "cage"

// CaseStudy is one Table 2 row.
type CaseStudy struct {
	// CVE identifies the real-world bug the program models.
	CVE string
	// Cause is the Table 2 "Cause" column.
	Cause string
	// MitigatedBaseline is the Table 2 "Mitigated in WASM" column for
	// plain WebAssembly ("No" or "Partially").
	MitigatedBaseline string
	// Description says what the model program does.
	Description string
	// Source is the MiniC program with entry `long attack(long)`.
	Source string
	// Arg is the attack(n) argument triggering the bug.
	Arg uint64
}

// Table2Cases returns the Table 2 case studies in paper order.
func Table2Cases() []CaseStudy { return caseStudies }

var caseStudies = []CaseStudy{
	{
		CVE: "CVE-2023-4863", Cause: "Out-of-bounds", MitigatedBaseline: "No",
		Description: "libwebp-style heap overflow: an undersized Huffman table is " +
			"written past its end, corrupting the adjacent object",
		Arg: 1,
		Source: `
extern char* malloc(long n);
long attack(long evil) {
    long* table = (long*)malloc(8 * 8);    // attacker-shrunk table
    long* adjacent = (long*)malloc(8 * 8); // victim object
    adjacent[0] = 1234;
    long entries = 8;
    if (evil) { entries = 12; }            // miscomputed table size
    for (long i = 0; i < entries; i++) { table[i] = -1; }
    if (adjacent[0] != 1234) { return 1; } // corrupted
    return 0;
}`,
	},
	{
		CVE: "CVE-2014-0160", Cause: "Out-of-bounds", MitigatedBaseline: "No",
		Description: "Heartbleed-style over-read: the reply length is taken from the " +
			"request, leaking heap bytes beyond the payload",
		Arg: 64,
		Source: `
extern char* malloc(long n);
long attack(long claimed) {
    char* secret = malloc(16);
    char* payload = malloc(16);
    for (long i = 0; i < 16; i++) { secret[i] = 'K'; payload[i] = 'p'; }
    long leak = 0;
    for (long i = 0; i < claimed; i++) {   // trusts the claimed length
        leak += (long)payload[i];
    }
    if (leak != claimed * 112) { return 1; } // leaked non-'p' bytes
    return 0;
}`,
	},
	{
		CVE: "CVE-2021-3999", Cause: "Out-of-bounds", MitigatedBaseline: "Partially",
		Description: "glibc getcwd off-by-one: a one-byte underflow write lands just " +
			"before the buffer",
		Arg: 1,
		Source: `
extern char* malloc(long n);
long attack(long evil) {
    char* guardobj = malloc(16);
    char* buf = malloc(16);
    guardobj[15] = 'G';
    long idx = 0;
    if (evil) { idx = -1; }                // the off-by-one
    buf[idx] = 'X';
    if (guardobj[15] != 'G') { return 1; }
    if (idx < 0) { return 2; }             // metadata smashed
    return 0;
}`,
	},
	{
		CVE: "CVE-2018-14550", Cause: "Out-of-bounds", MitigatedBaseline: "No",
		Description: "libpng-style stack smash: a parsing loop writes past a " +
			"fixed-size stack buffer into the neighbouring frame data",
		Arg: 24,
		Source: `
long attack(long inputLen) {
    long target[2];
    char chunk[16];
    target[0] = 7;
    for (long i = 0; i < inputLen; i++) {  // no bounds check on input
        chunk[i] = 'A';
    }
    if (target[0] != 7) { return 1; }      // stack corrupted
    return 0;
}`,
	},
	{
		CVE: "CVE-2021-22940", Cause: "Use-after-free", MitigatedBaseline: "No",
		Description: "Node.js-style use-after-free read of a released stream object",
		Arg:         1,
		Source: `
extern char* malloc(long n);
extern void free(char* p);
long attack(long evil) {
    long* stream = (long*)malloc(32);
    stream[0] = 777;
    if (evil) { free((char*)stream); }
    long* recycled = (long*)malloc(32);    // may reuse the block
    recycled[0] = 42;
    if (stream[0] != 777) { return 1; }    // stale read saw new data
    return 0;
}`,
	},
	{
		CVE: "CVE-2021-33574", Cause: "Use-after-free", MitigatedBaseline: "No",
		Description: "glibc mq_notify-style use-after-free write through a stale " +
			"pointer, corrupting whoever owns the memory now",
		Arg: 1,
		Source: `
extern char* malloc(long n);
extern void free(char* p);
long attack(long evil) {
    long* notification = (long*)malloc(32);
    notification[0] = 1;
    if (evil) { free((char*)notification); }
    long* victim = (long*)malloc(32);
    victim[0] = 555;
    notification[0] = -1;                  // stale write
    if (victim[0] != 555) { return 1; }
    return 0;
}`,
	},
	{
		CVE: "CVE-2020-1752", Cause: "Use-after-free", MitigatedBaseline: "No",
		Description: "glibc glob use-after-free: freed path data is dereferenced " +
			"during a later traversal step",
		Arg: 1,
		Source: `
extern char* malloc(long n);
extern void free(char* p);
long attack(long evil) {
    char* dirname = malloc(24);
    for (long i = 0; i < 8; i++) { dirname[i] = 'd'; }
    dirname[8] = 0;
    if (evil) { free(dirname); }
    char* other = malloc(24);
    for (long i = 0; i < 8; i++) { other[i] = 'x'; }
    long sum = 0;
    for (long i = 0; i < 8; i++) { sum += (long)dirname[i]; } // stale
    if (sum != 8 * 100) { return 1; }
    return 0;
}`,
	},
	{
		CVE: "CVE-2019-11932", Cause: "Double-free", MitigatedBaseline: "Partially",
		Description: "WhatsApp GIF double-free: freeing twice corrupts the free " +
			"list, making two live allocations overlap",
		Arg: 1,
		Source: `
extern char* malloc(long n);
extern void free(char* p);
long attack(long evil) {
    char* frame = malloc(48);
    free(frame);
    if (evil) { free(frame); }             // the double free
    long* a = (long*)malloc(48);
    long* b = (long*)malloc(48);           // overlaps a after corruption
    a[0] = 1111;
    b[0] = 2222;
    if (a[0] != 1111) { return 1; }        // a and b alias
    return 0;
}`,
	},
}

// Table2Scenarios wraps the eight CVE case studies as one scenario
// family.
func Table2Scenarios() []Scenario {
	out := make([]Scenario, 0, len(caseStudies))
	for _, cs := range caseStudies {
		out = append(out, cs.scenario())
	}
	return out
}

// scenario runs the case study's attack(Arg) under the Table 2 oracle.
func (cs CaseStudy) scenario() Scenario {
	return &prog{
		name:     cs.CVE,
		family:   "table2",
		source:   cs.Source,
		entry:    "attack",
		arg:      cs.Arg,
		expect:   expectTable2,
		classify: classifyDamage,
	}
}

// expectTable2 is the Table 2 oracle. Every case is an intra-memory
// violation, so the verdict depends only on whether the configuration
// carries the memory-safety extension: with it, the run must trap with
// ClassMemorySafety; without it, the attack must succeed (the damage
// indicator goes nonzero). Sandboxing, pointer authentication and the
// Spectre hardening change nothing here — they defend different
// boundaries.
func expectTable2(cfg cage.Config) Outcome {
	if cfg.Features().MemSafety {
		return Outcome{Verdict: VerdictTrapped, Class: ClassMemorySafety}
	}
	return Outcome{Verdict: VerdictExploited}
}
